package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// small returns options that keep experiment tests fast while preserving the
// qualitative shapes.
func small() Options {
	return Options{Seed: 1, Duration: 2 * sim.Second, Warmup: 300 * sim.Millisecond, Runs: 3, Trials: 60}
}

func TestT10x2(t *testing.T) {
	net := must(t10x2.Build(7))
	if len(net.APs) != 10 || net.NumNodes() != 30 {
		t.Fatalf("T(10,2): %d APs %d nodes", len(net.APs), net.NumNodes())
	}
}

func TestTable1Prints(t *testing.T) {
	var b bytes.Buffer
	Table1(&b)
	out := b.String()
	for _, want := range []string{"256", "24", "3.2", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r := must(Fig2(small()))
	// The paper's claims: omniscient ≈ 1.8× DCF; DOMINO close to
	// omniscient; DCF starves AP3→C3.
	dcf := r.Overall[core.DCF]
	dom := r.Overall[core.DOMINO]
	omni := r.Overall[core.Omniscient]
	if dom <= dcf*1.3 {
		t.Errorf("DOMINO %.2f should clearly beat DCF %.2f", dom, dcf)
	}
	if dom < omni*0.8 {
		t.Errorf("DOMINO %.2f should approach omniscient %.2f", dom, omni)
	}
	if ap3 := r.PerLink[core.DCF][2]; ap3 > r.PerLink[core.DCF][0]/3 {
		t.Errorf("DCF should starve AP3→C3 (got %.2f)", ap3)
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "DOMINO") {
		t.Error("print output malformed")
	}
}

func TestFig5Shapes(t *testing.T) {
	r := Fig5(1)
	if !r.EqualNoGuard.OK[0] || !r.EqualNoGuard.OK[1] {
		t.Error("5a: equal-RSS clients must decode")
	}
	if r.StrongNoGuard.OK[1] {
		t.Error("5b: weak client should be corrupted without guards")
	}
	if !r.StrongGuarded.OK[1] {
		t.Error("5c: weak client must decode with 3 guards")
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "Fig 5") {
		t.Error("print output malformed")
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(small())
	// 3 guards at 38 dB hold; 0 guards at 38 dB fail.
	idx38 := -1
	for i, d := range r.DiffsDB {
		if d == 38 {
			idx38 = i
		}
	}
	if r.Ratio[3][idx38] < 0.85 {
		t.Errorf("3 guards at 38 dB = %.2f", r.Ratio[3][idx38])
	}
	if r.Ratio[0][idx38] > r.Ratio[3][idx38]-0.2 {
		t.Errorf("guards not helping: g0=%.2f g3=%.2f", r.Ratio[0][idx38], r.Ratio[3][idx38])
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "guards=3") {
		t.Error("print output malformed")
	}
}

func TestSNRFloorShape(t *testing.T) {
	r := SNRFloor(small())
	last := r.Ratio[len(r.Ratio)-1] // 8 dB
	first := r.Ratio[0]             // -16 dB
	if last < 0.95 || first > 0.5 {
		t.Errorf("SNR floor shape wrong: %.2f at %v dB, %.2f at %v dB",
			first, r.SNRdB[0], last, r.SNRdB[len(r.SNRdB)-1])
	}
}

func TestFig9Shape(t *testing.T) {
	r := must(Fig9(small()))
	for i, row := range r.Detected {
		for j, v := range row {
			if v < 0 {
				continue
			}
			if r.Combined[j] <= 4 && v < 0.95 {
				t.Errorf("setup %d combined %d: detection %.2f", i, r.Combined[j], v)
			}
		}
	}
	if r.MaxFP > 0.02 {
		t.Errorf("false positives %.3f", r.MaxFP)
	}
}

func TestTable2Shape(t *testing.T) {
	o := small()
	o.Duration = sim.Second // ×10 internally
	r := must(Table2(o))
	for i, sc := range r.Scenarios {
		if r.Domino[i] <= r.DCF[i] {
			t.Errorf("%v: DOMINO %.4f should beat DCF %.4f", sc, r.Domino[i], r.DCF[i])
		}
	}
	// Hidden and exposed placements show the largest gains (paper: >3×).
	htGain := r.Domino[1] / r.DCF[1]
	etGain := r.Domino[2] / r.DCF[2]
	scGain := r.Domino[0] / r.DCF[0]
	if htGain < scGain || etGain < scGain {
		t.Errorf("gains: SC=%.2f HT=%.2f ET=%.2f; HT/ET should exceed SC", scGain, htGain, etGain)
	}
}

func TestTable3Shape(t *testing.T) {
	r := must(Table3(small()))
	domA, cenA, dcfA := r.Mbps[0][0], r.Mbps[0][1], r.Mbps[0][2]
	domB, cenB, dcfB := r.Mbps[1][0], r.Mbps[1][1], r.Mbps[1][2]
	// 13(a): both centralized schemes well above DCF.
	if domA < dcfA*1.5 || cenA < dcfA*1.5 {
		t.Errorf("13a: DOMINO %.1f CENTAUR %.1f DCF %.1f", domA, cenA, dcfA)
	}
	// 13(b): CENTAUR collapses below DCF; DOMINO holds.
	if cenB >= dcfB {
		t.Errorf("13b: CENTAUR %.1f should fall below DCF %.1f", cenB, dcfB)
	}
	if domB < domA*0.85 {
		t.Errorf("13b: DOMINO %.1f should stay near its 13a value %.1f", domB, domA)
	}
}

func TestFig11Shape(t *testing.T) {
	o := small()
	o.Duration = sim.Second
	r := must(Fig11(o))
	for i, std := range r.StdsUs {
		first := r.MaxUs[i][0]
		settled := r.MaxUs[i][len(r.MaxUs[i])-1]
		if first == 0 {
			t.Errorf("σ=%v: no initial misalignment", std)
		}
		if settled > first && settled > 5 {
			t.Errorf("σ=%v: misalignment grew: %v -> %v", std, first, settled)
		}
	}
}

func TestFig10Timeline(t *testing.T) {
	o := small()
	o.Duration = 200 * sim.Millisecond
	events := must(Fig10(o, 50))
	if len(events) != 50 {
		t.Fatalf("events = %d", len(events))
	}
	kinds := map[obs.Kind]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
		if ev.Kind == obs.KindTxStart && ev.Aux != "ACK" && ev.Aux != "POLL" {
			t.Errorf("timeline kept a %s tx_start record", ev.Aux)
		}
	}
	for _, want := range []obs.Kind{obs.KindSlotStart, obs.KindSlotEnd, obs.KindTrigger, obs.KindTxStart} {
		if !kinds[want] {
			t.Errorf("timeline missing %s records", want)
		}
	}
	var b bytes.Buffer
	PrintFig10(&b, events)
	if !strings.Contains(b.String(), "slot") {
		t.Error("print output malformed")
	}
}

func TestFig12UDPShape(t *testing.T) {
	o := small()
	r := must(Fig12(o, core.UDPCBR))
	// DOMINO must beat DCF at zero uplink (paper: +74%) and stay ahead.
	domino0, dcf0 := r.ThroughputMbps[0][0], r.ThroughputMbps[2][0]
	if domino0 <= dcf0*1.2 {
		t.Errorf("uplink 0: DOMINO %.2f vs DCF %.2f, want ≥1.2x", domino0, dcf0)
	}
	last := len(r.UpMbps) - 1
	dominoF, dcfF := r.Fairness[0][last], r.Fairness[2][last]
	if dominoF <= dcfF {
		t.Errorf("fairness at full uplink: DOMINO %.2f vs DCF %.2f", dominoF, dcfF)
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "fairness") {
		t.Error("print output malformed")
	}
}

func TestFig14Shape(t *testing.T) {
	o := small()
	o.Duration = 1500 * sim.Millisecond
	r := must(Fig14(o))
	if r.Gains.N() == 0 {
		t.Fatal("no feasible random topologies")
	}
	if med := r.Gains.Quantile(0.5); med < 1.1 {
		t.Errorf("median gain %.2fx, want >1.1 (paper: 1.58)", med)
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "gain") {
		t.Error("print output malformed")
	}
}

// TestFig14Deterministic asserts the parallel-harness contract end to end:
// the gains CDF and skip count are identical at workers=1 and workers=8 for
// the same seed, because every placement derives its seed from its run
// index and the CDF shards merge in run order.
func TestFig14Deterministic(t *testing.T) {
	o := Options{Seed: 5, Duration: 400 * sim.Millisecond, Warmup: 100 * sim.Millisecond, Runs: 4}
	o.Workers = 1
	serial := must(Fig14(o))
	o.Workers = 8
	par := must(Fig14(o))
	if serial.Skipped != par.Skipped {
		t.Fatalf("skipped: workers=1 %d, workers=8 %d", serial.Skipped, par.Skipped)
	}
	if serial.Gains.N() != par.Gains.N() {
		t.Fatalf("N: workers=1 %d, workers=8 %d", serial.Gains.N(), par.Gains.N())
	}
	sx, _ := serial.Gains.Points()
	px, _ := par.Gains.Points()
	for i := range sx {
		if sx[i] != px[i] {
			t.Errorf("gain %d: workers=1 %v, workers=8 %v", i, sx[i], px[i])
		}
	}
}

func TestLightLoadShape(t *testing.T) {
	o := small()
	r := must(LightLoad(o))
	if r.Ratio <= 0 {
		t.Fatal("no delay measured")
	}
	// DOMINO's control overhead costs some delay at light load, but within
	// the same order of magnitude (paper: 1.14×).
	if r.Ratio > 30 {
		t.Errorf("light-load delay ratio %.1fx is out of hand", r.Ratio)
	}
}

func TestPollingSweepShape(t *testing.T) {
	o := small()
	o.Duration = 1500 * sim.Millisecond
	r := must(PollingSweep(o))
	if len(r.HeavyMbps) != len(r.BatchSizes) {
		t.Fatal("row shape wrong")
	}
	// Light-traffic delay grows with batch size (paper §5).
	first, lastV := r.LightDelayUs[0], r.LightDelayUs[len(r.LightDelayUs)-1]
	if lastV < first {
		t.Logf("light delay: %v", r.LightDelayUs) // tendency, not strict
	}
}

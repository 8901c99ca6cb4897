package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// cellsNet builds k disjoint AP cells (clientsPerAP clients each) with
// in-cell RSS inCell (AP↔client), inPeer (client↔client) and cross-cell RSS
// cross everywhere. Node ids are domain-contiguous: AP, its clients, next
// AP, …
func cellsNet(k, clientsPerAP int, inCell, inPeer, cross float64) *topo.Network {
	n := k * (1 + clientsPerAP)
	net := &topo.Network{
		RSS:  make([][]float64, n),
		IsAP: make([]bool, n),
		APOf: make([]phy.NodeID, n),
	}
	cellOf := make([]int, n)
	for c := 0; c < k; c++ {
		base := c * (1 + clientsPerAP)
		net.IsAP[base] = true
		net.APs = append(net.APs, phy.NodeID(base))
		net.APOf[base] = phy.NodeID(base)
		cellOf[base] = c
		for i := 1; i <= clientsPerAP; i++ {
			net.APOf[base+i] = phy.NodeID(base)
			cellOf[base+i] = c
		}
	}
	for i := 0; i < n; i++ {
		net.RSS[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				net.RSS[i][j] = 0
			case cellOf[i] != cellOf[j]:
				net.RSS[i][j] = cross
			case net.IsAP[i] || net.IsAP[j]:
				net.RSS[i][j] = inCell
			default:
				net.RSS[i][j] = inPeer
			}
		}
	}
	return net
}

// disjointNet: cells with no cross-cell coupling at all — the partition is
// exact (no severed edges), so sharding approximates nothing.
func disjointNet(k, clientsPerAP int) *topo.Network {
	return cellsNet(k, clientsPerAP, -55, -60, topo.UnmeasuredDBm)
}

// coupledNet: two cells with weak signals (−80 dBm) and −91 dBm cross-cell
// coupling. The coupling degrades cross-cell SINR below Rate12's threshold
// plus margin (conflict edges exist) but sits far under DefaultCutDBm, so
// the partition severs it: 2 domains, ≥1 cut edge, 1 cross-domain pair —
// the windowed synchronization path.
func coupledNet() *topo.Network {
	return cellsNet(2, 2, -80, -85, -91)
}

func baseScenario(net *topo.Network) core.Scenario {
	return core.Scenario{
		Net:      net,
		Downlink: true,
		Uplink:   true,
		Scheme:   core.DOMINO,
		Seed:     7,
		Duration: 20 * sim.Millisecond,
	}
}

// encode renders records as NDJSON lines, optionally clearing the shard tag
// so sharded and single-engine records align byte for byte.
func encode(recs []obs.Record, stripShard bool) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		if stripShard {
			r.Shard = 0
		}
		out = append(out, string(obs.AppendRecord(nil, r)))
	}
	return out
}

// TestShardTransparencySingleDomain pins the tentpole's byte-identity
// claim: on a partition-free topology (everything lands in one domain, so
// domain 0's derived seed equals the scenario seed) the whole sharding
// apparatus — instance wrapping, tracer remap, framing filter, merged
// emission, metrics merge — is byte-transparent: the full trace, including
// kernel samples, is identical to the single-engine run's after clearing
// the shard tag.
func TestShardTransparencySingleDomain(t *testing.T) {
	net := cellsNet(1, 4, -55, -60, topo.UnmeasuredDBm)

	single := baseScenario(net)
	var singleBuf obs.Buffer
	single.Tracer = &singleBuf
	single.Metrics = obs.NewMetrics()
	single.NoSpans = true
	sres, err := core.RunScenario(single)
	if err != nil {
		t.Fatal(err)
	}

	sharded := baseScenario(net)
	var shardBuf obs.Buffer
	sharded.Tracer = &shardBuf
	sharded.Metrics = obs.NewMetrics()
	sharded.NoSpans = true
	dres, rep, err := Run(sharded, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Partition.Domains); got != 1 {
		t.Fatalf("domains = %d, want 1", got)
	}

	sl := encode(singleBuf.Records(), true)
	dl := encode(shardBuf.Records(), true)
	if len(sl) != len(dl) {
		t.Fatalf("record counts differ: single %d sharded %d", len(sl), len(dl))
	}
	for i := range sl {
		if sl[i] != dl[i] {
			t.Fatalf("trace diverges at record %d:\n  single:  %s\n  sharded: %s", i, sl[i], dl[i])
		}
	}
	for _, r := range shardBuf.Records() {
		if r.Kind != obs.KindRunStart && r.Kind != obs.KindRunEnd && r.Kind != obs.KindMetric && r.Shard != 1 {
			t.Fatalf("record missing shard tag: %+v", r)
		}
	}
	if sres.AggregateMbps != dres.AggregateMbps || sres.MeanDelay != dres.MeanDelay ||
		sres.Fairness != dres.Fairness || sres.DataMbps != dres.DataMbps {
		t.Errorf("results differ: single %+v sharded %+v", sres.AggregateMbps, dres.AggregateMbps)
	}
}

// TestRunStartCanonicalSchemeName: a scenario naming its scheme in a
// non-canonical spelling opens the sharded trace with the same run_start
// record the single engine writes — the registry's canonical name.
func TestRunStartCanonicalSchemeName(t *testing.T) {
	firstRecord := func(run func(core.Scenario) error) obs.Record {
		t.Helper()
		s := baseScenario(disjointNet(2, 1))
		s.SchemeName = "domino"
		var buf obs.Buffer
		s.Tracer = &buf
		if err := run(s); err != nil {
			t.Fatal(err)
		}
		return buf.Records()[0]
	}
	single := firstRecord(func(s core.Scenario) error {
		_, err := core.RunScenario(s)
		return err
	})
	sharded := firstRecord(func(s core.Scenario) error {
		_, _, err := Run(s, Options{Workers: 2})
		return err
	})
	if single.Kind != obs.KindRunStart || single.Aux != "DOMINO" {
		t.Fatalf("single-engine first record = %+v, want run_start DOMINO", single)
	}
	if sharded != single {
		t.Fatalf("sharded run_start = %+v, single engine = %+v", sharded, single)
	}
}

// TestDifferentialMultiDomain checks the multi-domain equivalence level:
// disjoint cells produce the same aggregate capacity, delivery count and
// collision count as the single engine. Per-link schedules legitimately
// differ — the single engine's scheduler shares global tie-breaking state
// across components — so equality is asserted at the aggregate level the
// partition actually preserves.
func TestDifferentialMultiDomain(t *testing.T) {
	net := disjointNet(4, 2)

	single := baseScenario(net)
	singleMetrics := obs.NewMetrics()
	single.Metrics = singleMetrics
	sres, err := core.RunScenario(single)
	if err != nil {
		t.Fatal(err)
	}

	sharded := baseScenario(net)
	shardMetrics := obs.NewMetrics()
	sharded.Metrics = shardMetrics
	dres, rep, err := Run(sharded, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Partition.Domains); got != 4 {
		t.Fatalf("domains = %d, want 4", got)
	}
	if rep.Partition.Stats.CutEdges != 0 || rep.Windows != 0 {
		t.Fatalf("disjoint net must run barrier-free: %+v windows=%d",
			rep.Partition.Stats, rep.Windows)
	}
	if sres.AggregateMbps != dres.AggregateMbps || sres.DataMbps != dres.DataMbps {
		t.Errorf("aggregate: single (%v, %v) sharded (%v, %v)",
			sres.AggregateMbps, sres.DataMbps, dres.AggregateMbps, dres.DataMbps)
	}
	if len(sres.PerLinkMbps) != len(dres.PerLinkMbps) {
		t.Fatalf("link counts differ: %d vs %d", len(sres.PerLinkMbps), len(dres.PerLinkMbps))
	}
	for _, name := range []string{"mac.delivered", "phy.collisions"} {
		sv, _ := singleMetrics.Snapshot().Get(name)
		dv, _ := shardMetrics.Snapshot().Get(name)
		if sv.Value != dv.Value {
			t.Errorf("%s: single %v sharded %v", name, sv.Value, dv.Value)
		}
	}
	if v, ok := shardMetrics.Snapshot().Get("shard.domains"); !ok || v.Value != 4 {
		t.Errorf("shard.domains = %v, want 4", v.Value)
	}
}

// TestShardCountDeterminism pins the worker-count independence contract on
// the coupled (windowed, message-passing) path: the raw merged trace bytes
// and the Result are identical at 1, 2 and 4 workers.
func TestShardCountDeterminism(t *testing.T) {
	type run struct {
		lines []string
		res   core.Result
		rep   *Report
	}
	do := func(workers int) run {
		s := baseScenario(coupledNet())
		var buf obs.Buffer
		s.Tracer = &buf
		s.Metrics = obs.NewMetrics()
		res, rep, err := Run(s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return run{lines: encode(buf.Records(), false), res: res, rep: rep}
	}
	base := do(1)
	if got := len(base.rep.Partition.Domains); got != 2 {
		t.Fatalf("domains = %d, want 2", got)
	}
	if base.rep.Partition.Stats.CutEdges == 0 {
		t.Fatal("coupled net produced no cut edges; windowed path not exercised")
	}
	if base.rep.Windows == 0 {
		t.Fatal("no synchronization windows ran")
	}
	if base.rep.Messages == 0 {
		t.Fatal("no cross-shard digests routed")
	}
	if len(base.rep.Audits) != 1 || base.rep.Audits[0].A != 0 || base.rep.Audits[0].B != 1 {
		t.Fatalf("audits = %+v, want exactly pair (0,1)", base.rep.Audits)
	}
	for _, workers := range []int{2, 4} {
		r := do(workers)
		if len(r.lines) != len(base.lines) {
			t.Fatalf("workers=%d: record count %d, want %d", workers, len(r.lines), len(base.lines))
		}
		for i := range r.lines {
			if r.lines[i] != base.lines[i] {
				t.Fatalf("workers=%d: trace diverges at record %d:\n  w1: %s\n  w%d: %s",
					workers, i, base.lines[i], workers, r.lines[i])
			}
		}
		if r.res.AggregateMbps != base.res.AggregateMbps || r.res.MeanDelay != base.res.MeanDelay {
			t.Errorf("workers=%d: result differs", workers)
		}
		if r.rep.Messages != base.rep.Messages || r.rep.Windows != base.rep.Windows {
			t.Errorf("workers=%d: windows/messages differ: (%d,%d) vs (%d,%d)", workers,
				r.rep.Windows, r.rep.Messages, base.rep.Windows, base.rep.Messages)
		}
	}
}

// TestCrossShardAudit checks that the windowed run carries monotone
// coupling digests both directions over the severed pair.
func TestCrossShardAudit(t *testing.T) {
	s := baseScenario(coupledNet())
	_, rep, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Audits) != 1 {
		t.Fatalf("audits = %+v", rep.Audits)
	}
	a := rep.Audits[0]
	// Both directions emit once per routed window.
	if want := 2 * (rep.Windows - 1); a.Messages != want {
		t.Errorf("messages = %d, want %d", a.Messages, want)
	}
	if a.FinalAB <= 0 || a.FinalBA <= 0 {
		t.Errorf("final digests not positive: %+v (saturated links must deliver)", a)
	}
}

// TestMessageInjection exercises the Apply path and the (From, Seq)
// delivery order through the router directly.
func TestMessageInjection(t *testing.T) {
	net := coupledNet()
	links := net.BuildLinks(true, true)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	p := topo.PartitionDomains(g, topo.DefaultCutDBm)
	if len(p.Domains) != 2 {
		t.Fatalf("domains = %d", len(p.Domains))
	}
	r := newRouter(p)

	var order []int
	mk := func(from, seq, tag int) Message {
		return Message{From: from, To: 1, Seq: seq,
			Apply: func(*core.Instance) { order = append(order, tag) }}
	}
	// Inject out of order across one source channel; delivery must sort
	// by (From, Seq).
	r.inject(mk(0, 1, 2))
	r.inject(mk(0, 0, 1))
	r.route()
	// A second round's message queues behind the first delivery.
	r.inject(mk(0, 2, 3))
	r.deliver(1, nil)
	r.route()
	r.deliver(1, nil)
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("applied %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("applied %v, want %v", order, want)
		}
	}
	if r.messages != 3 {
		t.Errorf("messages = %d, want 3", r.messages)
	}
}

// TestRunRejectsUnsupported pins the error contract.
func TestRunRejectsUnsupported(t *testing.T) {
	s := baseScenario(disjointNet(2, 1))
	s.Links = s.Net.BuildLinks(true, false)
	if _, _, err := Run(s, Options{}); err == nil {
		t.Error("custom Links accepted")
	}
	if _, _, err := Run(core.Scenario{}, Options{}); err == nil {
		t.Error("nil Net accepted")
	}
}

// TestSteppableMatchesRun pins that driving a run through the explicit
// New/StepWindow/Finish lifecycle — the form internal/run checkpoints
// between windows — produces byte-identical traces and an identical report
// to the loop-it-all Run wrapper, on both the coupled (windowed) and
// uncoupled (barrier-free) paths.
func TestSteppableMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *topo.Network
	}{
		{"coupled", coupledNet()},
		{"disjoint", disjointNet(3, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := baseScenario(tc.net)
			var refBuf obs.Buffer
			ref.Tracer = &refBuf
			ref.Metrics = obs.NewMetrics()
			_, refRep, err := Run(ref, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}

			stepped := baseScenario(tc.net)
			var stepBuf obs.Buffer
			stepped.Tracer = &stepBuf
			stepped.Metrics = obs.NewMetrics()
			st, err := New(stepped, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			for !st.StepWindow() {
				steps++
				if c := st.Clock(); c <= 0 || c >= stepped.Duration {
					t.Fatalf("mid-run clock %v outside (0, %v)", c, stepped.Duration)
				}
			}
			if !st.Done() || st.Clock() != stepped.Duration {
				t.Fatalf("done=%v clock=%v after final step", st.Done(), st.Clock())
			}
			_, stepRep, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}

			if stepRep.Windows != refRep.Windows || stepRep.Messages != refRep.Messages {
				t.Fatalf("report differs: windows %d/%d messages %d/%d",
					stepRep.Windows, refRep.Windows, stepRep.Messages, refRep.Messages)
			}
			rl, sl := encode(refBuf.Records(), false), encode(stepBuf.Records(), false)
			if len(rl) != len(sl) {
				t.Fatalf("record counts differ: run %d steppable %d", len(rl), len(sl))
			}
			for i := range rl {
				if rl[i] != sl[i] {
					t.Fatalf("trace diverges at record %d:\n  run:       %s\n  steppable: %s", i, rl[i], sl[i])
				}
			}
		})
	}
}

// TestStepGranuleIdentity pins that slicing an uncoupled run into bounded
// step granules — the knob that gives checkpoints a finite window length on
// barrier-free topologies — leaves the trace, the result and the report
// (Windows stays 0: granules are not synchronization barriers) exactly as
// the single-leap run produces them.
func TestStepGranuleIdentity(t *testing.T) {
	net := disjointNet(3, 2)

	whole := baseScenario(net)
	var wholeBuf obs.Buffer
	whole.Tracer = &wholeBuf
	whole.Metrics = obs.NewMetrics()
	wres, wrep, err := Run(whole, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	sliced := baseScenario(net)
	var slicedBuf obs.Buffer
	sliced.Tracer = &slicedBuf
	sliced.Metrics = obs.NewMetrics()
	sres, srep, err := Run(sliced, Options{Workers: 2, StepGranule: 3 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	if srep.Windows != 0 {
		t.Fatalf("granule run counted %d windows; granules are not barriers", srep.Windows)
	}
	if wrep.Windows != 0 {
		t.Fatalf("whole run counted %d windows on a disjoint net", wrep.Windows)
	}
	if wres.AggregateMbps != sres.AggregateMbps || wres.MeanDelay != sres.MeanDelay {
		t.Fatalf("results differ: whole %+v sliced %+v", wres, sres)
	}
	wl, sl := encode(wholeBuf.Records(), false), encode(slicedBuf.Records(), false)
	if len(wl) != len(sl) {
		t.Fatalf("record counts differ: whole %d sliced %d", len(wl), len(sl))
	}
	for i := range wl {
		if wl[i] != sl[i] {
			t.Fatalf("trace diverges at record %d:\n  whole:  %s\n  sliced: %s", i, wl[i], sl[i])
		}
	}
}

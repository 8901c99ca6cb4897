package shard

import (
	"fmt"
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
// the partition severs it: 2 domains, ≥1 cut edge whose coupling the
// sharded run approximates away.
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
// kernel samples and causal spans, is identical to the single-engine run's
// after clearing the shard tag and removing domain 0's span base.
func TestShardTransparencySingleDomain(t *testing.T) {
	net := cellsNet(1, 4, -55, -60, topo.UnmeasuredDBm)

	single := baseScenario(net)
	var singleBuf obs.Buffer
	single.Tracer = &singleBuf
	single.Metrics = obs.NewMetrics()
	sres, err := core.RunScenario(single)
	if err != nil {
		t.Fatal(err)
	}

	sharded := baseScenario(net)
	var shardBuf obs.Buffer
	sharded.Tracer = &shardBuf
	sharded.Metrics = obs.NewMetrics()
	dres, rep, err := Run(sharded, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Partition.Domains); got != 1 {
		t.Fatalf("domains = %d, want 1", got)
	}

	sl := encode(singleBuf.Records(), true)
	shardRecs := shardBuf.Records()
	base := int64(1) << spanBaseShift // domain 0's span base
	spans := 0
	for i := range shardRecs {
		r := &shardRecs[i]
		for _, id := range []*int64{&r.Span, &r.Parent} {
			if *id != 0 {
				if *id <= base {
					t.Fatalf("record %d: span id %d not above domain 0's base", i, *id)
				}
				*id -= base
				spans++
			}
		}
	}
	if spans == 0 {
		t.Fatal("sharded trace carries no spans")
	}
	dl := encode(shardRecs, true)
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
		s.Scheme = "domino"
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
	if rep.Partition.Stats.CutEdges != 0 {
		t.Fatalf("disjoint net must partition exactly: %+v", rep.Partition.Stats)
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
// a partition with severed conflict edges: the raw merged trace bytes and
// the Result are identical at 1, 2 and 4 workers.
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
		t.Fatal("coupled net produced no cut edges")
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

// nets are the two partition shapes the step tests run on: severed
// conflict edges, and an exact partition.
var nets = []struct {
	name string
	net  func() *topo.Network
}{
	{"coupled", coupledNet},
	{"disjoint", func() *topo.Network { return disjointNet(3, 2) }},
}

// tracedRun runs s through Run with a trace and metrics and returns the
// encoded trace, the Result and the Report.
func tracedRun(t *testing.T, s core.Scenario, opt Options) ([]string, core.Result, *Report) {
	t.Helper()
	var buf obs.Buffer
	s.Tracer = &buf
	s.Metrics = obs.NewMetrics()
	res, rep, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return encode(buf.Records(), false), res, rep
}

// sameTrace fails the test at the first record where a and b differ.
func sameTrace(t *testing.T, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at record %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// sameResult fails the test when two Results differ in any measurement.
func sameResult(t *testing.T, what string, a, b core.Result) {
	t.Helper()
	if a.AggregateMbps != b.AggregateMbps || a.MeanDelay != b.MeanDelay ||
		a.Fairness != b.Fairness || a.DataMbps != b.DataMbps ||
		len(a.PerLinkMbps) != len(b.PerLinkMbps) {
		t.Fatalf("%s differs: %+v vs %+v", what, a, b)
	}
	for i := range a.PerLinkMbps {
		if a.PerLinkMbps[i] != b.PerLinkMbps[i] {
			t.Fatalf("%s: link %d rate %v vs %v", what, i, a.PerLinkMbps[i], b.PerLinkMbps[i])
		}
	}
}

// sameReport fails the test when two Reports differ in partition, worker
// count or any per-domain Result.
func sameReport(t *testing.T, a, b *Report) {
	t.Helper()
	if a.Workers != b.Workers || a.Partition.Stats != b.Partition.Stats || len(a.PerDomain) != len(b.PerDomain) {
		t.Fatalf("report differs: workers %d/%d stats %+v/%+v domains %d/%d",
			a.Workers, b.Workers, a.Partition.Stats, b.Partition.Stats, len(a.PerDomain), len(b.PerDomain))
	}
	for d := range a.PerDomain {
		sameResult(t, fmt.Sprintf("domain %d result", d), a.PerDomain[d], b.PerDomain[d])
	}
}

// TestSteppableMatchesRun pins that driving a run through the explicit
// New/StepWindow/Finish lifecycle in bounded granules — the form
// internal/run checkpoints between steps — produces byte-identical traces
// and an identical Result and Report to the one-shot Run wrapper, with the
// clock advancing strictly inside the run between steps.
func TestSteppableMatchesRun(t *testing.T) {
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			refLines, refRes, refRep := tracedRun(t, baseScenario(tc.net()), Options{Workers: 2})

			stepped := baseScenario(tc.net())
			var stepBuf obs.Buffer
			stepped.Tracer = &stepBuf
			stepped.Metrics = obs.NewMetrics()
			st, err := New(stepped, Options{Workers: 2, StepGranule: 3 * sim.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			steps := 1
			for !st.StepWindow() {
				steps++
				if c := st.Clock(); c <= 0 || c >= stepped.Duration {
					t.Fatalf("mid-run clock %v outside (0, %v)", c, stepped.Duration)
				}
			}
			if steps < 2 {
				t.Fatalf("run took %d step; the granule was not honoured", steps)
			}
			if !st.Done() || st.Clock() != stepped.Duration {
				t.Fatalf("done=%v clock=%v after final step", st.Done(), st.Clock())
			}
			stepRes, stepRep, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}

			sameTrace(t, refLines, encode(stepBuf.Records(), false))
			sameResult(t, "result", refRes, stepRes)
			sameReport(t, refRep, stepRep)
		})
	}
}

// TestStepGranuleIdentity pins that slicing a run into bounded step
// granules — the knob that gives checkpoints a finite step length — leaves
// the trace, the Result and the Report exactly as the single-leap run
// produces them, on a partition with severed edges and on an exact one.
func TestStepGranuleIdentity(t *testing.T) {
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			wl, wres, wrep := tracedRun(t, baseScenario(tc.net()), Options{Workers: 2})
			sl, sres, srep := tracedRun(t, baseScenario(tc.net()), Options{Workers: 2, StepGranule: 3 * sim.Millisecond})
			sameTrace(t, wl, sl)
			sameResult(t, "result", wres, sres)
			sameReport(t, wrep, srep)
		})
	}
}

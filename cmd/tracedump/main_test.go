package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// rec builds a span-annotated record for the chain tests.
func rec(at sim.Time, k obs.Kind, node int, span, parent int64) obs.Record {
	r := obs.Rec(at, k)
	r.Node = node
	r.Span = span
	r.Parent = parent
	return r
}

// TestChainReportGolden pins the chain-analysis section for a hand-built
// cascade: one root slot (span 1) triggers a client (span 2 = trigger,
// span 3 = its uplink slot), whose boundary broadcast (span 4) triggers a
// second AP (span 5 → slot span 6); a lone slot (span 10) free-runs with no
// children. Poll reports (span 0, parent 6) extend the chain's extent.
func TestChainReportGolden(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	ca := newChainAnalyzer()
	recs := []obs.Record{
		rec(us(0), obs.KindSlotStart, 0, 1, 0),
		func() obs.Record {
			r := rec(us(0), obs.KindTxStart, 0, 1, 0)
			r.Dur = us(400)
			return r
		}(),
		func() obs.Record {
			r := rec(us(450), obs.KindTrigger, 4, 2, 1)
			r.Value = 1 // cascade depth
			return r
		}(),
		rec(us(460), obs.KindSlotStart, 4, 3, 2),
		func() obs.Record {
			r := rec(us(460), obs.KindTxStart, 4, 3, 0)
			r.Dur = us(400)
			return r
		}(),
		rec(us(900), obs.KindSlotEnd, 4, 4, 3),
		func() obs.Record {
			r := rec(us(905), obs.KindTrigger, 1, 5, 4)
			r.Value = 2
			return r
		}(),
		rec(us(910), obs.KindSlotStart, 1, 6, 5),
		rec(us(1400), obs.KindROPPoll, 7, 0, 6), // leaf event on span 6
		rec(us(2000), obs.KindSlotStart, 2, 10, 0),
	}
	for _, r := range recs {
		ca.Observe(r)
	}
	var b strings.Builder
	ca.Report().write(&b, 8)
	got := b.String()
	want := "" +
		"trigger chains: 2 chains over 7 spans, deepest tree 6\n" +
		"  trigger cascade depth: 2 triggers, p50 1  p95 2  max 2\n" +
		"  longest chains (top 2 of 2):\n" +
		"    span 1      n0   @0ns             6 spans  depth 6   critical path 1.4ms        airtime 800µs\n" +
		"    span 10     n2   @2ms             1 spans  depth 1   critical path 0ns          airtime 0ns\n"
	if got != want {
		t.Errorf("chain report mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestChainReportTruncated: a child whose parent span never appears (e.g. a
// trace cut mid-run) roots its own chain instead of vanishing.
func TestChainReportTruncated(t *testing.T) {
	ca := newChainAnalyzer()
	ca.Observe(rec(5, obs.KindSlotStart, 3, 8, 7)) // parent 7 never seen
	rep := ca.Report()
	if rep.spans != 1 || len(rep.chains) != 1 {
		t.Fatalf("report = %d spans, %d chains; want 1 and 1", rep.spans, len(rep.chains))
	}
	if rep.chains[0].root.id != 8 {
		t.Fatalf("orphan rooted at span %d, want 8", rep.chains[0].root.id)
	}
}

// TestDumpMetricsSpansAndUnknownKinds: a metric record prints as a summary
// line, span-annotated records are counted, and a record kind from a newer
// trace format is counted instead of aborting the dump.
func TestDumpMetricsSpansAndUnknownKinds(t *testing.T) {
	start := obs.Rec(0, obs.KindRunStart)
	start.Aux, start.Value = "DOMINO", 7
	metric := obs.Rec(sim.Millisecond, obs.KindMetric)
	metric.Aux, metric.Value, metric.Extra = "mac.delay_us", 42, 1300
	end := obs.Rec(sim.Millisecond, obs.KindRunEnd)
	var trace []byte
	trace = obs.AppendRecord(trace, start)
	trace = obs.AppendRecord(trace, rec(10, obs.KindSlotStart, 0, 1, 0))
	trace = obs.AppendRecord(trace, rec(20, obs.KindTrigger, 1, 2, 1))
	trace = append(trace, `{"t":30,"k":"future_kind","v":1}`+"\n"...)
	trace = obs.AppendRecord(trace, rec(40, obs.KindQueue, -1, 0, 0))
	trace = obs.AppendRecord(trace, metric)
	trace = obs.AppendRecord(trace, end)

	var b strings.Builder
	if err := dump(&b, strings.NewReader(string(trace)), 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== run 0: scheme=DOMINO seed=7 duration=1ms\n",
		"metric mac.delay_us             n=42       p99=1300\n",
		"causal spans: 2 of 5 records annotated\n",
		"unrecognized records: 1 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestDumpRejectsMalformedAndEmpty: broken JSON names its line; an input
// with no records is an error too.
func TestDumpRejectsMalformedAndEmpty(t *testing.T) {
	for in, want := range map[string]string{
		"{\"t\":0,\"k\":\"run_start\"}\nnot json\n": "trace line 2",
		"": "no records",
	} {
		err := dump(io.Discard, strings.NewReader(in), 0)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("dump(%q) = %v, want error containing %q", in, err, want)
		}
	}
}

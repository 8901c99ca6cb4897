package gold

import (
	"testing"

	"repro/internal/obs"
)

func TestDetectEmitsRecords(t *testing.T) {
	set, err := NewSet(7)
	if err != nil {
		t.Fatal(err)
	}
	corr := NewCorrelator(set)
	var buf obs.Buffer
	corr.Obs = &buf
	rx := set.Combine(1, 2)
	if !corr.DetectObserved(rx, 1) {
		t.Fatal("clean code 1 not detected")
	}
	if corr.DetectObserved(rx, 5) {
		t.Fatal("absent code 5 detected")
	}
	if got, want := corr.Detect(rx, 1), true; got != want {
		t.Fatal("plain Detect disagrees with DetectObserved")
	}
	recs := buf.Records()
	if len(recs) != 2 {
		t.Fatalf("emitted %d records, want 2", len(recs))
	}
	if recs[0].Kind != obs.KindTrigger || !recs[0].OK || recs[0].Node != 1 {
		t.Fatalf("hit record = %+v", recs[0])
	}
	if recs[0].Value < 900_000 {
		t.Fatalf("hit metric = %d millionths, want ~1e6", recs[0].Value)
	}
	if recs[1].Kind != obs.KindTriggerMiss || recs[1].OK || recs[1].Node != 5 {
		t.Fatalf("miss record = %+v", recs[1])
	}
}

// The tracer-disabled paths must not allocate: Detect sits inside the
// Monte-Carlo detection trials and the per-reception judging loop, and
// DetectObserved with a nil tracer must degrade to the same cost class.
func TestDetectDisabledZeroAlloc(t *testing.T) {
	set, err := NewSet(7)
	if err != nil {
		t.Fatal(err)
	}
	corr := NewCorrelator(set)
	rx := set.Combine(1, 2, 3, 4)
	if got := testing.AllocsPerRun(200, func() { corr.Detect(rx, 1) }); got != 0 {
		t.Fatalf("Detect allocates %v/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { corr.DetectObserved(rx, 1) }); got != 0 {
		t.Fatalf("DetectObserved allocates %v/op with nil tracer, want 0", got)
	}
}

// BenchmarkMetric measures the correlator hot path with tracing disabled (the
// path TestDetectDisabledZeroAlloc pins at zero allocations) and enabled (a
// counting tracer, the realistic always-on cost).
func BenchmarkMetric(b *testing.B) {
	set, err := NewSet(7)
	if err != nil {
		b.Fatal(err)
	}
	rx := set.Combine(1, 2, 3, 4)
	b.Run("disabled", func(b *testing.B) {
		corr := NewCorrelator(set)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			corr.Detect(rx, 1)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		corr := NewCorrelator(set)
		var sink countingTracer
		corr.Obs = &sink
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			corr.DetectObserved(rx, 1)
		}
	})
}

type countingTracer struct {
	n int64
}

func (c *countingTracer) Emit(obs.Record) { c.n++ }

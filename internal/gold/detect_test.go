package gold

import "testing"

// Detect must not allocate: it sits inside the Monte-Carlo detection trials
// and the per-reception judging loop.
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
}

// BenchmarkMetric measures the correlator hot path (the path
// TestDetectDisabledZeroAlloc pins at zero allocations).
func BenchmarkMetric(b *testing.B) {
	set, err := NewSet(7)
	if err != nil {
		b.Fatal(err)
	}
	rx := set.Combine(1, 2, 3, 4)
	corr := NewCorrelator(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr.Detect(rx, 1)
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke scale, untraced twice and traced
// once, and checks that each declared metric is reported with its unit, that
// the profile's layer times add up to the traced CPU time, and that the
// simulated outputs repeat exactly.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, wl := range spec.Workloads {
		inv := invocation{workload: wl.Name, seed: 1, seconds: time.Nanosecond, scale: smokeScale, outDir: out}
		var digests []string
		for rep := 0; rep < 2; rep++ {
			res, digest, err := measure(inv, spec)
			if err != nil || !res.Correct || res.Failed != 0 {
				t.Fatalf("%s: correct=%v failed=%d err=%v", wl.Name, res.Correct, res.Failed, err)
			}
			checkMetrics(t, wl.Name, res, spec.EndToEnd)
			digests = append(digests, digest)
		}
		inv.trace, inv.seconds = true, 300*time.Millisecond
		res, digest, err := measure(inv, spec)
		if err != nil || !res.Correct || res.Failed != 0 {
			t.Fatalf("%s traced: correct=%v failed=%d err=%v", wl.Name, res.Correct, res.Failed, err)
		}
		checkMetrics(t, wl.Name, res, spec.PerLayer)
		digests = append(digests, digest)
		if digests[0] != digests[1] || digests[0] != digests[2] {
			t.Errorf("%s: digests differ across runs: %v", wl.Name, digests)
		}

		var sum float64
		for _, l := range layers {
			sum += res.Metrics[l+".self_s"].Value
		}
		cpu := res.Metrics["trace.cpu_s"].Value
		if cpu <= 0 || math.Abs(sum-cpu) > 0.02*cpu {
			t.Errorf("%s: layer self times sum to %v s, traced CPU is %v s", wl.Name, sum, cpu)
		}
	}
}

func checkMetrics(t *testing.T, workload string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v, want a number in %s", workload, d.Name, m, d.Unit)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), the one the README's spreads use.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct{ v, want []float64 }{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.v)
		if q1 != c.want[0] || med != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, med, q3, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"math.log10", "repro/internal/phy.(*Medium).sinr", "repro/internal/sim.(*Kernel).run"}, "phy"},
		{[]string{"runtime.mallocgc", "repro/internal/mac.(*Queue).Push"}, "alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"repro/internal/rop.(*Poller).Poll.func1"}, "poll"},
		{[]string{"repro/internal/exp.Fig14"}, "other"},
		{[]string{"runtime.futex", "main.main"}, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

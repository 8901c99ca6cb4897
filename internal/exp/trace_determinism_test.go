package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// fig14TraceOpts is the smallest Fig 14 configuration that exercises the
// sharded tracer across several runs without dominating the test suite.
func fig14TraceOpts(workers int) Options {
	return Options{
		Seed:     1,
		Duration: 250 * sim.Millisecond,
		Warmup:   50 * sim.Millisecond,
		Runs:     2,
		Workers:  workers,
	}
}

// TestFig14TraceDeterministicAcrossWorkers is the observability determinism
// contract: the merged NDJSON trace of a parallel experiment — with causal
// spans enabled, since tracing turns them on — is byte-identical at any
// worker count, because span IDs are allocated per run, every run writes its
// own shard, and shards merge in run order.
func TestFig14TraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run Fig 14 trace comparison")
	}
	var serial, two, fanned bytes.Buffer

	o := fig14TraceOpts(1)
	o.TraceSink = &serial
	r1 := must(Fig14(o))

	o = fig14TraceOpts(2)
	o.TraceSink = &two
	must(Fig14(o))

	o = fig14TraceOpts(8)
	o.TraceSink = &fanned
	r8 := must(Fig14(o))

	if serial.Len() == 0 {
		t.Fatal("traced Fig 14 produced an empty trace")
	}
	if !bytes.Equal(serial.Bytes(), two.Bytes()) {
		t.Fatalf("trace differs between workers=1 (%d bytes) and workers=2 (%d bytes)",
			serial.Len(), two.Len())
	}
	if !bytes.Equal(serial.Bytes(), fanned.Bytes()) {
		t.Fatalf("trace differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			serial.Len(), fanned.Len())
	}
	if g1, g8 := r1.Gains.N(), r8.Gains.N(); g1 != g8 {
		t.Fatalf("gain counts differ: %d vs %d", g1, g8)
	}

	// The stream must parse back into records, open with the first run's
	// run_start, alternate DCF/DOMINO run delimiters in run order, and carry
	// span annotations (DOMINO runs allocate spans when traced).
	var schemes []string
	var n, spanned int
	_, err := obs.ParseNDJSON(&serial, func(r obs.Record) error {
		n++
		if r.Kind == obs.KindRunStart {
			schemes = append(schemes, r.Aux)
		}
		if r.Span != 0 || r.Parent != 0 {
			spanned++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}
	if n == 0 {
		t.Fatal("no records parsed")
	}
	if spanned == 0 {
		t.Fatal("no record carries a causal span; spans should be on in traced runs")
	}
	want := "DCF DOMINO DCF DOMINO"
	if got := strings.Join(schemes, " "); got != want {
		t.Fatalf("run_start sequence = %q, want %q", got, want)
	}
}

// TestFig2TraceSink checks the per-scheme sharding of the motivating figure.
func TestFig2TraceSink(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Seed: 1, Duration: 200 * sim.Millisecond, Runs: 1, Trials: 1,
		Workers: 2, TraceSink: &buf}
	if _, err := Fig2(o); err != nil {
		t.Fatal(err)
	}
	var schemes []string
	if _, err := obs.ParseNDJSON(&buf, func(r obs.Record) error {
		if r.Kind == obs.KindRunStart {
			schemes = append(schemes, r.Aux)
		}
		return nil
	}); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if got := strings.Join(schemes, " "); got != "DCF CENTAUR DOMINO Omniscient" {
		t.Fatalf("run_start sequence = %q", got)
	}
}

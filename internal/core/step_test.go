package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestSteppedRunMatchesRunScenario pins single-engine slicing: for every
// registered scheme, driving an Instance to its deadline in many Step time
// slices — the way bench interleaves its yardstick — produces the same
// NDJSON trace bytes and the same Result as one RunScenario call.
func TestSteppedRunMatchesRunScenario(t *testing.T) {
	const slices = 16
	for _, name := range scheme.Registry.Names() {
		t.Run(name, func(t *testing.T) {
			sp := spec.Spec{
				Scheme:   name,
				Topology: spec.Topology{Kind: "fig1"},
				Seed:     11,
				Duration: spec.Duration(300 * sim.Millisecond),
				Warmup:   spec.Duration(50 * sim.Millisecond),
				Obs:      spec.Obs{Metrics: true},
			}
			// build returns a fresh scenario (its own metrics registry) whose
			// trace goes to buf through tracer.
			build := func(buf *bytes.Buffer) (Scenario, *obs.NDJSON) {
				sc, err := BuildScenario(sp)
				if err != nil {
					t.Fatal(err)
				}
				nd := obs.NewNDJSON(buf)
				sc.Tracer = nd
				return sc, nd
			}

			var refBuf bytes.Buffer
			sc, nd := build(&refBuf)
			ref, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := nd.Flush(); err != nil {
				t.Fatal(err)
			}

			var gotBuf bytes.Buffer
			sc, nd = build(&gotBuf)
			inst, err := NewInstance(sc)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= slices; i++ {
				inst.Step(inst.S.Duration * sim.Time(i) / slices)
			}
			got := inst.Finish()
			if err := nd.Flush(); err != nil {
				t.Fatal(err)
			}

			if refBuf.Len() == 0 {
				t.Fatal("one-shot run wrote no trace")
			}
			if !bytes.Equal(gotBuf.Bytes(), refBuf.Bytes()) {
				t.Fatalf("stepped trace differs from one-shot trace (%d vs %d bytes)", gotBuf.Len(), refBuf.Len())
			}
			if got.AggregateMbps != ref.AggregateMbps || got.DataMbps != ref.DataMbps ||
				got.MeanDelay != ref.MeanDelay || got.MeanDelayPerLink != ref.MeanDelayPerLink ||
				got.Fairness != ref.Fairness || !reflect.DeepEqual(got.PerLinkMbps, ref.PerLinkMbps) {
				t.Fatalf("stepped result differs: %+v vs %+v", got, ref)
			}
			if len(ref.Snapshot) == 0 || !reflect.DeepEqual(got.Snapshot, ref.Snapshot) {
				t.Fatalf("stepped metrics differ (%d vs %d metrics)", len(got.Snapshot), len(ref.Snapshot))
			}
			if !reflect.DeepEqual(got.Breakdown, ref.Breakdown) {
				t.Fatalf("stepped airtime breakdown differs: %+v vs %+v", got.Breakdown, ref.Breakdown)
			}
		})
	}
}

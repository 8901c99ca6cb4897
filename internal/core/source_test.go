package core

import (
	"fmt"
	"testing"

	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestFig7EveryEventAttributed runs saturated Fig 7 under every registered
// scheme and fails if any fired event carries no source layer: every timer
// a scheme arms outside a tagged chain must be tagged with SetSource, or
// the per-layer event counters lose it.
func TestFig7EveryEventAttributed(t *testing.T) {
	for _, name := range scheme.Registry.Names() {
		sp, err := spec.Parse([]byte(fmt.Sprintf(`{"scheme": %q, "topology": {"kind": "fig7"}, "seed": 1,
			"duration": "300ms", "warmup": "50ms", "traffic": {"kind": "saturated"}}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := BuildScenario(sp)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(sc)
		if err != nil {
			t.Fatal(err)
		}
		var unknown, fired uint64
		in.Kernel.OnEvent(func(info sim.EventInfo) {
			fired++
			if info.Source == sim.SrcUnknown {
				unknown++
			}
		})
		in.Step(sc.Duration)
		in.Finish()
		if fired == 0 {
			t.Errorf("%s: no events fired", name)
		}
		if unknown > 0 {
			t.Errorf("%s: %d of %d events fired with source %v", name, unknown, fired, sim.SrcUnknown)
		}
	}
}

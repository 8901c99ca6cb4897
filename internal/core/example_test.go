package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ExampleRunScenario simulates a hidden-terminal pair under DOMINO and
// reports how the channel was shared.
func ExampleRunScenario() {
	res, err := core.RunScenario(core.Scenario{
		Net:      topo.TwoPairs(topo.HiddenTerminals),
		Downlink: true,
		Scheme:   core.DOMINO,
		Traffic:  core.Saturated,
		Duration: 2 * sim.Second,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("links: %d\n", len(res.Links))
	fmt.Printf("fair share: %v\n", res.Fairness > 0.98)
	fmt.Printf("no collisions: %v\n", res.Domino.AckMisses == 0)
	// Output:
	// links: 2
	// fair share: true
	// no collisions: true
}

// Quickstart: simulate two hidden AP-client pairs under plain 802.11 DCF and
// under DOMINO's relative scheduling, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	// Two AP-client pairs placed as hidden terminals: the senders cannot
	// carrier-sense each other, but each corrupts the other's receiver.
	for _, scheme := range []core.Scheme{core.DCF, core.DOMINO} {
		res, err := core.RunScenario(core.Scenario{
			Net:      topo.TwoPairs(topo.HiddenTerminals),
			Downlink: true,
			Scheme:   scheme,
			Traffic:  core.Saturated,
			Duration: 5 * sim.Second,
			Warmup:   500 * sim.Millisecond,
			Seed:     42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s aggregate %5.2f Mbps, fairness %.2f", scheme, res.AggregateMbps, res.Fairness)
		for _, l := range res.Links {
			fmt.Printf("   %s %.2f", l, res.PerLinkMbps[l.ID])
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("DCF's senders collide blindly at the receivers; DOMINO's central")
	fmt.Println("schedule alternates the links and triggers each slot with Gold-code")
	fmt.Println("signatures, so no synchronization — and no collisions — are needed.")
}

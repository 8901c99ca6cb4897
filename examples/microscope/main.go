// Microscope puts DOMINO "under the microscope" (paper §3.4, Fig 10): it runs
// the four-pair Fig 7 network with every flow saturated and prints the
// per-slot timeline — data and fake transmissions, signature broadcasts,
// triggers, ACKs and polls — showing the wired-jitter misalignment of slot 0
// healing within a few slots.
//
//	go run ./examples/microscope [-events 80]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	maxEvents := flag.Int("events", 80, "number of timeline events to print")
	flag.Parse()

	fmt.Println("Fig 7 network: chains {AP1,AP2} and {AP3,AP4}; AP3/AP4 hidden;")
	fmt.Println("all eight links saturated. Timeline of the first slots:")
	fmt.Println()

	tl := exp.NewTimeline(*maxEvents)
	res, err := core.RunScenario(core.Scenario{
		Net:      topo.Figure7(),
		Downlink: true,
		Uplink:   true,
		Scheme:   core.DOMINO,
		Traffic:  core.Saturated,
		Duration: 2 * sim.Second,
		Seed:     6,
		Tracer:   tl,
	})
	if err != nil {
		log.Fatal(err)
	}
	exp.PrintFig10(os.Stdout, tl.Records())

	fmt.Println()
	fmt.Println("misalignment at slot starts (paper Fig 11's metric):")
	for s := 0; s < 8; s++ {
		fmt.Printf("  slot %d: %v\n", s, res.Misalign.Max(s))
	}
	fmt.Printf("\n2 s totals: %d data, %d fake, %d polls, %d ACK misses, %d self-starts\n",
		res.Domino.DataSends, res.Domino.FakeSends, res.Domino.Polls,
		res.Domino.AckMisses, res.Domino.SelfStarts)
	fmt.Printf("aggregate %.2f Mbps, fairness %.3f\n", res.AggregateMbps, res.Fairness)
}

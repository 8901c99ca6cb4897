// Hiddenexposed reproduces the paper's motivating example (Figs 1 and 2): a
// three-pair network where AP1 and AP3 are hidden terminals and C2/AP1 are
// exposed, run under all four channel-access schemes.
//
//	go run ./examples/hiddenexposed
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	fmt.Println("The Fig 1 network: AP1→C1 and AP3→C3 are hidden from each other;")
	fmt.Println("C2→AP2 is exposed to AP1 and could always transmit concurrently.")
	fmt.Println()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tAP1→C1\tC2→AP2\tAP3→C3\toverall\t")
	for _, scheme := range []core.Scheme{core.DCF, core.CENTAUR, core.DOMINO, core.Omniscient} {
		net := topo.Figure1()
		res, err := core.RunScenario(core.Scenario{
			Net:      net,
			Links:    topo.Figure1Links(net),
			Scheme:   scheme,
			Traffic:  core.Saturated,
			Duration: 10 * sim.Second,
			Warmup:   sim.Second,
			Seed:     1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t\n",
			scheme, res.PerLinkMbps[0], res.PerLinkMbps[1], res.PerLinkMbps[2], res.AggregateMbps)
	}
	w.Flush()

	fmt.Println()
	fmt.Println("Expected shape (paper Fig 2): DCF starves the hidden AP3→C3 and")
	fmt.Println("serialises the exposed C2; the omniscient scheduler runs C2 in every")
	fmt.Println("slot while AP1/AP3 alternate; DOMINO lands close to omniscient with")
	fmt.Println("no synchronization, using signature triggers instead.")
}

// Enterprise simulates the paper's default large-scale setting: a T(10,2)
// enterprise WLAN selected from the synthetic two-building campus trace,
// carrying 10 Mbps downlink UDP per link plus a configurable uplink load,
// under DCF, CENTAUR and DOMINO.
//
//	go run ./examples/enterprise [-up 4] [-duration 10s]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

func main() {
	up := flag.Float64("up", 4, "uplink offered Mbps per link")
	duration := flag.Duration("duration", 8*time.Second, "simulated time")
	seed := flag.Int64("seed", 1, "seed for trace, topology and simulation")
	flag.Parse()

	build := func() *topo.Network {
		net, err := spec.Topology{Kind: "campus", APs: 10, Clients: 2}.Build(*seed)
		if err != nil {
			log.Fatal(err)
		}
		return net
	}

	// Report the topology's interference statistics, the quantities the
	// paper quotes for its T(10,2) (§4.2.3).
	net := build()
	g := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
	h, e, total := g.CountHiddenExposed()
	fmt.Printf("T(10,2) from the campus trace: %d nodes, %d links\n", net.NumNodes(), len(g.Links))
	fmt.Printf("interference structure: %d hidden pairs, %d exposed pairs of %d\n\n", h, e, total)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tthroughput (Mbps)\tmean delay\tJain fairness\t")
	for _, scheme := range []core.Scheme{core.DCF, core.CENTAUR, core.DOMINO} {
		res, err := core.RunScenario(core.Scenario{
			Net:      build(),
			Downlink: true,
			Uplink:   true,
			Scheme:   scheme,
			Traffic:  core.UDPCBR,
			DownMbps: 10,
			UpMbps:   *up,
			Duration: sim.Time(duration.Nanoseconds()),
			Warmup:   500 * sim.Millisecond,
			Seed:     *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.2f\t%v\t%.3f\t\n",
			scheme, res.DataMbps, res.MeanDelay, res.Fairness)
	}
	w.Flush()
	fmt.Println("\n(downlink 10 Mbps/link fixed; vary -up to sweep Fig 12's x-axis)")
}

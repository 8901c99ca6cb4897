// Command traceinfo generates, inspects and exports RSS traces and the
// T(m,n) topologies selected from them. (NDJSON observability traces are
// summarized by tracedump.)
//
//	traceinfo -gen campus -seed 7                 # statistics of a campus trace
//	traceinfo -gen random -nodes 110 -area 800    # random placement
//	traceinfo -gen campus -json > trace.json      # export
//	traceinfo -load trace.json -aps 10 -clients 2 # select a T(m,n) and report
//
// The JSON format (topo.ReadTraceJSON) carries a measured interference map
// in and out. traceinfo only reports on an imported trace: no spec kind or
// simulator flag runs one.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/phy"
	"repro/internal/topo"
)

func main() {
	var (
		gen     = flag.String("gen", "campus", "campus | random (ignored with -load)")
		load    = flag.String("load", "", "load a trace from a JSON file")
		seed    = flag.Int64("seed", 1, "generator seed")
		nodes   = flag.Int("nodes", 110, "random placement node count")
		area    = flag.Float64("area", 800, "random placement square side (m)")
		asJSON  = flag.Bool("json", false, "dump the trace as JSON to stdout")
		aps     = flag.Int("aps", 0, "select a T(aps, clients) and report it")
		clients = flag.Int("clients", 2, "clients per AP for -aps")
	)
	flag.Parse()

	var tr *topo.Trace
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr, err = topo.ReadTraceJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *gen == "campus":
		tr = topo.CampusTrace(*seed)
	case *gen == "random":
		tr = topo.RandomTrace(*seed, *nodes, *area)
	default:
		fmt.Fprintf(os.Stderr, "unknown generator %q\n", *gen)
		os.Exit(2)
	}

	if *asJSON {
		if err := tr.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	n := len(tr.RSS)
	fmt.Printf("trace: %d nodes\n", n)
	var measured int
	min, max := 0.0, -200.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := tr.RSS[i][j]
			if v > topo.UnmeasuredDBm {
				measured++
				if v > max {
					max = v
				}
				if min == 0 || v < min {
					min = v
				}
			}
		}
	}
	fmt.Printf("measured couplings: %d of %d pairs (%.1f%%), %.1f..%.1f dBm\n",
		measured, n*(n-1)/2, 100*float64(measured)/float64(n*(n-1)/2), min, max)
	fmt.Printf("same-receiver pairs differing >38 dB: %.2f%% (paper trace: 0.54%%)\n",
		100*topo.RSSDiffExceedRatio(tr.RSS, 38, -94))

	if *aps > 0 {
		rng := rand.New(rand.NewSource(*seed))
		net, err := topo.BuildT(tr, *aps, *clients, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		links := net.BuildLinks(true, true)
		g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
		h, e, total := g.CountHiddenExposed()
		fmt.Printf("\nT(%d,%d): %d nodes, %d links\n", *aps, *clients, net.NumNodes(), len(links))
		fmt.Printf("hidden pairs: %d, exposed pairs: %d of %d\n", h, e, total)
		deg := 0
		for i := range links {
			deg += g.Degree(i)
		}
		fmt.Printf("mean conflict degree: %.1f\n", float64(deg)/float64(len(links)))
	}
}

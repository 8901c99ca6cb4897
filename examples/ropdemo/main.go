// Ropdemo walks through Rapid OFDM Polling at the sample level: one control
// symbol in which every client reports its queue simultaneously, the
// inter-subchannel leakage a strong neighbour causes, and the guard-subcarrier
// sweep of paper Fig 6.
//
//	go run ./examples/ropdemo
package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ofdm"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	l := ofdm.DefaultLayout()

	fmt.Printf("ROP control symbol: %d subcarriers, %d subchannels × %d bits, %d guard\n",
		l.N, l.NumSubchannels(), l.PerSub, l.Guard)
	fmt.Printf("symbol duration %.0f µs (CP %.1f µs)\n\n",
		l.SymbolDurationUs(), float64(l.CPLen)/ofdm.SampleRate*1e6)

	// One polling round: every one of the 24 clients reports a queue size in
	// a single 16 µs symbol.
	var clients []ofdm.Client
	var queues []int
	for s := 0; s < l.NumSubchannels(); s++ {
		clients = append(clients, ofdm.Client{Subchannel: s, CFOHz: (rng.Float64()*2 - 1) * 550})
		queues = append(queues, rng.Intn(64))
	}
	res := ofdm.NewPoller(l).Poll(clients, queues, 1e-3, rng)
	okAll := true
	for i, ok := range res.OK {
		if !ok {
			okAll = false
			fmt.Printf("client %d FAILED: sent %d got %d\n", i, queues[i], res.Values[i])
		}
	}
	fmt.Printf("all 24 clients decoded in one symbol: %v\n\n", okAll)

	// The Fig 5 story: a 30 dB stronger neighbour leaks into the weak
	// client's subchannel without guards, and is contained with 3.
	show := func(name string, guard int) {
		ly := ofdm.DefaultLayout()
		ly.Guard = guard
		cs := []ofdm.Client{
			{Subchannel: 0, GainDB: 30, CFOHz: 1200},
			{Subchannel: 1, GainDB: 0, CFOHz: -400},
		}
		pr := ofdm.NewPoller(ly).Poll(cs, []int{0b111111, 0b010101}, 1e-3, rng)
		weak := ly.SubcarrierIndices(1)
		fmt.Printf("%s: weak client decode ok = %v, weak-band |Y|:", name, pr.OK[1])
		for _, bin := range weak {
			fmt.Printf(" %.2f", pr.Spectrum[bin])
		}
		fmt.Println()
	}
	show("no guards (Fig 5b)", 0)
	show("3 guards  (Fig 5c)", 3)
	fmt.Println()

	// Fig 6: decode ratio vs RSS difference per guard count.
	diffs := []float64{20, 30, 34, 38, 42}
	fmt.Printf("decode ratio (%%) vs RSS difference:\n%8s", "")
	for _, d := range diffs {
		fmt.Printf("%7.0fdB", d)
	}
	fmt.Println()
	for g := 0; g <= 4; g++ {
		ly := ofdm.DefaultLayout()
		ly.Guard = g
		row := []string{}
		for _, d := range diffs {
			r := ofdm.DecodeRatio(ly, d, ofdm.DefaultCFOMaxHz, 1e-3, 200, rng)
			row = append(row, fmt.Sprintf("%8.0f%%", r*100))
		}
		fmt.Printf("guard=%d %s\n", g, strings.Join(row, " "))
	}
	fmt.Println("\n3 guard subcarriers hold to the trace's 38 dB worst case (paper §3.1).")
}

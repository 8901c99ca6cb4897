package ofdm_test

import (
	"fmt"
	"math/rand"

	"repro/internal/ofdm"
)

// ExamplePoller_Poll runs one Rapid OFDM Polling round: three clients
// report their queue lengths simultaneously in a single 16 µs control symbol.
func ExamplePoller_Poll() {
	l := ofdm.DefaultLayout()
	rng := rand.New(rand.NewSource(1))
	clients := []ofdm.Client{
		{Subchannel: 0},
		{Subchannel: 1, CFOHz: 400},
		{Subchannel: 2, DelaySamples: 30}, // 1.5 µs of propagation delay
	}
	res := ofdm.NewPoller(l).Poll(clients, []int{5, 63, 0}, 1e-3, rng)
	fmt.Println("decoded:", res.Values)
	fmt.Println("all ok:", res.OK[0] && res.OK[1] && res.OK[2])
	// Output:
	// decoded: [5 63 0]
	// all ok: true
}

package topo

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/phy"
)

// pairwiseConflicts is the reference definition of the conflict graph: every
// link pair tested directly, each through the data and ACK receptions of the
// other link against both of its endpoints. NewConflictGraph must produce
// exactly this relation.
func pairwiseConflicts(net *Network, links []*Link, cfg phy.Config, rate phy.Rate) [][]bool {
	// breaks reports whether a transmission from interferer drags the
	// src→dst SINR below the rate threshold plus the scheduling margin.
	breaks := func(interferer, src, dst phy.NodeID) bool {
		if interferer == src || interferer == dst {
			return false // shared-node conflicts are handled separately
		}
		signal := net.RSS[src][dst]
		interfMw := phy.DBmToMw(net.RSS[interferer][dst]) + phy.DBmToMw(cfg.NoiseDBm)
		sinr := signal - phy.MwToDBm(interfMw)
		return sinr < phy.SNRThresholdDB(rate)+ConflictMarginDB
	}
	// corrupts reports whether link a's exchange breaks any part of link
	// b's: a's data or ACK transmission corrupting b's data reception (at
	// b.Receiver) or b's ACK reception (at b.Sender).
	corrupts := func(a, b *Link) bool {
		for _, interferer := range []phy.NodeID{a.Sender, a.Receiver} {
			if breaks(interferer, b.Sender, b.Receiver) || // b's data
				breaks(interferer, b.Receiver, b.Sender) { // b's ACK
				return true
			}
		}
		return false
	}
	n := len(links)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := links[i].Shares(links[j]) ||
				corrupts(links[i], links[j]) || corrupts(links[j], links[i])
			adj[i][j] = c
			adj[j][i] = c
		}
	}
	return adj
}

// checkMatchesPairwise compares g edge for edge, degree for degree and AP
// pair for AP pair against the pairwise reference.
func checkMatchesPairwise(t *testing.T, g *ConflictGraph, cfg phy.Config, rate phy.Rate) {
	t.Helper()
	want := pairwiseConflicts(g.Net, g.Links, cfg, rate)
	edges := 0
	for i := range g.Links {
		deg := 0
		for j := range g.Links {
			if got := g.Conflicts(i, j); got != want[i][j] {
				t.Fatalf("Conflicts(%v, %v) = %v, pairwise %v", g.Links[i], g.Links[j], got, want[i][j])
			}
			if want[i][j] {
				deg++
			}
		}
		if got := g.Degree(i); got != deg {
			t.Fatalf("Degree(%v) = %d, pairwise %d", g.Links[i], got, deg)
		}
		edges += deg
	}
	for _, ap1 := range g.Net.APs {
		for _, ap2 := range g.Net.APs {
			conflict := false
			for i, a := range g.Links {
				for j, b := range g.Links {
					if a.AP == ap1 && b.AP == ap2 && want[i][j] {
						conflict = true
					}
				}
			}
			if got := g.APConflict(ap1, ap2); got != conflict {
				t.Fatalf("APConflict(%d, %d) = %v, pairwise %v", ap1, ap2, got, conflict)
			}
		}
	}
	if edges == 0 && len(g.Links) > 1 {
		t.Fatalf("no conflict edges among %d links: the case tests nothing", len(g.Links))
	}
}

func TestConflictGraphMatchesPairwise(t *testing.T) {
	type input struct {
		name  string
		net   *Network
		links []*Link
	}
	tr := CampusTrace(7)
	t10, err := BuildT(tr, 10, 2, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var t20 *Network
	for seed := int64(0); t20 == nil; seed++ {
		if seed == 20 {
			t.Fatal("no random trace supported T(20,3)")
		}
		t20, _ = BuildT(RandomTrace(seed, 110, 800), 20, 3, phy.DefaultConfig(), phy.Rate12, rand.New(rand.NewSource(seed)))
	}
	grid := GridCampus(1, 4, 5, 2)
	// A -100 dBm link among unmeasured couplings: under the quiet noise
	// floor below, only interference at UnmeasuredDBm decides its edges.
	weak := pairNetwork(3, symRSS(6, UnmeasuredDBm,
		rssEntry{0, 1, -100}, rssEntry{2, 3, lvlLink}, rssEntry{4, 5, lvlLink}))
	fig1 := Figure1()
	// Every third link of T(10,2): some nodes keep no incident link.
	var subset []*Link
	for i, l := range t10.BuildLinks(true, true) {
		if i%3 == 0 {
			subset = append(subset, &Link{ID: len(subset), Sender: l.Sender, Receiver: l.Receiver, AP: l.AP, Downlink: l.Downlink})
		}
	}
	inputs := []input{
		{"fig1", fig1, Figure1Links(fig1)},
		{"fig1-all", fig1, fig1.BuildLinks(true, true)},
		{"fig7", Figure7(), Figure7().BuildLinks(true, true)},
		{"fig13a", Figure13a(), Figure13a().BuildLinks(true, true)},
		{"fig13b", Figure13b(), Figure13b().BuildLinks(true, true)},
		{"t10x2", t10, t10.BuildLinks(true, true)},
		{"t10x2-down", t10, t10.BuildLinks(true, false)},
		{"t10x2-subset", t10, subset},
		{"t20x3", t20, t20.BuildLinks(true, true)},
		{"grid", grid, grid.BuildLinks(true, true)},
		{"weak", weak, weak.BuildLinks(true, true)},
	}
	unused := 0
	for id := range t10.RSS {
		used := false
		for _, l := range subset {
			used = used || l.Sender == phy.NodeID(id) || l.Receiver == phy.NodeID(id)
		}
		if !used {
			unused++
		}
	}
	if unused == 0 {
		t.Fatal("link subset leaves every node an endpoint")
	}
	noisy := phy.DefaultConfig()
	noisy.NoiseDBm = -85
	quiet := phy.DefaultConfig()
	quiet.NoiseDBm = -120
	rates := []phy.Rate{phy.Rate6, phy.Rate9, phy.Rate12, phy.Rate18, phy.Rate24, phy.Rate36, phy.Rate48, phy.Rate54}
	for _, in := range inputs {
		for _, cfg := range []phy.Config{phy.DefaultConfig(), noisy, quiet} {
			for _, rate := range rates {
				t.Run(fmt.Sprintf("%s/noise%g/%gM", in.name, cfg.NoiseDBm, float64(rate)), func(t *testing.T) {
					checkMatchesPairwise(t, NewConflictGraph(in.net, in.links, cfg, rate), cfg, rate)
				})
			}
		}
	}
}

// BenchmarkNewConflictGraph times the conflict-graph build of the 500-AP
// grid campus the sharded engine partitions.
func BenchmarkNewConflictGraph(b *testing.B) {
	net := GridCampus(1, 25, 20, 2)
	links := net.BuildLinks(true, true)
	cfg := phy.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewConflictGraph(net, links, cfg, phy.Rate12)
	}
}

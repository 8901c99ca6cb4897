package topo

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/phy"
)

// NoCutDBm disables the RSS-threshold cut: every AP-conflict edge is kept,
// so domains are the exact connected components of the AP conflict relation.
var NoCutDBm = math.Inf(-1)

// Validate checks partition invariants: every AP in exactly one domain,
// every node and link mapped, and domain slices sorted.
func (p *Partition) Validate() error {
	net := p.Graph.Net
	seenAP := map[phy.NodeID]int{}
	for d := range p.Domains {
		dom := &p.Domains[d]
		if dom.Index != d {
			return fmt.Errorf("partition: domain %d has Index %d", d, dom.Index)
		}
		if len(dom.APs) == 0 {
			return fmt.Errorf("partition: domain %d has no APs", d)
		}
		for _, ap := range dom.APs {
			if prev, dup := seenAP[ap]; dup {
				return fmt.Errorf("partition: AP %d in domains %d and %d", ap, prev, d)
			}
			seenAP[ap] = d
		}
		if !sort.SliceIsSorted(dom.Nodes, func(a, b int) bool { return dom.Nodes[a] < dom.Nodes[b] }) {
			return fmt.Errorf("partition: domain %d nodes unsorted", d)
		}
		if !sort.IntsAreSorted(dom.Links) {
			return fmt.Errorf("partition: domain %d links unsorted", d)
		}
	}
	for _, ap := range net.APs {
		if _, ok := seenAP[ap]; !ok {
			return fmt.Errorf("partition: AP %d unassigned", ap)
		}
	}
	for id := 0; id < net.NumNodes(); id++ {
		if p.NodeDomain[id] < 0 {
			return fmt.Errorf("partition: node %d unassigned", id)
		}
	}
	for id, d := range p.LinkDomain {
		if d < 0 || d >= len(p.Domains) {
			return fmt.Errorf("partition: link %d has domain %d", id, d)
		}
	}
	return nil
}

// naiveComponents is the reference partition the domain tests compare
// against: plain DFS over a bool adjacency matrix, each component sorted.
func naiveComponents(adj [][]bool) [][]int {
	n := len(adj)
	visited := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		visited[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for j := 0; j < n; j++ {
				if adj[v][j] && !visited[j] {
					visited[j] = true
					stack = append(stack, j)
				}
			}
		}
		// Canonical form: sorted members.
		for i := 1; i < len(comp); i++ {
			for k := i; k > 0 && comp[k] < comp[k-1]; k-- {
				comp[k], comp[k-1] = comp[k-1], comp[k]
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func TestPartitionGridCampus(t *testing.T) {
	net := GridCampus(1, 9, 4, 2)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(net.APs) != 36 || net.NumNodes() != 108 {
		t.Fatalf("campus shape: %d APs, %d nodes", len(net.APs), net.NumNodes())
	}
	g := defaultGraph(t, net, true, false)
	p := PartitionDomains(g, DefaultCutDBm)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Domains < 2 {
		t.Fatalf("campus did not partition: %+v", p.Stats)
	}
	if p.Stats.Domains != len(p.Domains) {
		t.Fatalf("stats/domains disagree: %d vs %d", p.Stats.Domains, len(p.Domains))
	}
	// Domains ordered by smallest AP; every conflict edge kept within a
	// domain must join APs of the same domain.
	for d := 1; d < len(p.Domains); d++ {
		if p.Domains[d-1].APs[0] >= p.Domains[d].APs[0] {
			t.Fatalf("domains out of order at %d", d)
		}
	}
	cross := 0
	for i := range g.Links {
		for j := i + 1; j < len(g.Links); j++ {
			if g.Conflicts(i, j) && p.LinkDomain[i] != p.LinkDomain[j] {
				cross++
			}
		}
	}
	if cross != p.Stats.CrossLinkPairs {
		t.Fatalf("CrossLinkPairs = %d, recount = %d", p.Stats.CrossLinkPairs, cross)
	}
	t.Logf("campus partition: %+v", p.Stats)
}

func TestPartitionNoCutMatchesAPComponents(t *testing.T) {
	net := GridCampus(2, 4, 4, 2)
	g := defaultGraph(t, net, true, false)
	p := PartitionDomains(g, NoCutDBm)
	if p.Stats.CutEdges != 0 {
		t.Fatalf("NoCutDBm cut %d edges", p.Stats.CutEdges)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reference: components of the AP conflict relation via naive DFS.
	aps := net.APs
	adj := make([][]bool, len(aps))
	for i := range adj {
		adj[i] = make([]bool, len(aps))
		for j := range aps {
			if i != j && g.APConflict(aps[i], aps[j]) {
				adj[i][j] = true
			}
		}
	}
	want := naiveComponents(adj)
	if len(want) != len(p.Domains) {
		t.Fatalf("domains = %d, naive AP components = %d", len(p.Domains), len(want))
	}
	for d, comp := range want {
		if len(comp) != len(p.Domains[d].APs) {
			t.Fatalf("domain %d size %d, want %d", d, len(p.Domains[d].APs), len(comp))
		}
		for k, apIdx := range comp {
			if aps[apIdx] != p.Domains[d].APs[k] {
				t.Fatalf("domain %d AP %d = %d, want %d", d, k, p.Domains[d].APs[k], aps[apIdx])
			}
		}
	}
}

// TestSubnetMonotoneRestriction pins the key sharding invariant: building
// links on an extracted subnet yields exactly the global link set restricted
// to the domain, in the same relative order, with endpoints related by the
// monotone node map.
func TestSubnetMonotoneRestriction(t *testing.T) {
	net := GridCampus(4, 6, 3, 2)
	g := defaultGraph(t, net, true, false)
	p := PartitionDomains(g, DefaultCutDBm)
	if len(p.Domains) < 2 {
		t.Fatalf("want a partitioned campus, got %d domains", len(p.Domains))
	}
	for d := range p.Domains {
		sub, nodeMap := p.Subnet(d)
		if err := sub.Validate(); err != nil {
			t.Fatalf("domain %d subnet invalid: %v", d, err)
		}
		for i := 1; i < len(nodeMap); i++ {
			if nodeMap[i-1] >= nodeMap[i] {
				t.Fatalf("domain %d node map not monotone at %d", d, i)
			}
		}
		subLinks := sub.BuildLinks(true, false)
		if len(subLinks) != len(p.Domains[d].Links) {
			t.Fatalf("domain %d: %d subnet links, want %d",
				d, len(subLinks), len(p.Domains[d].Links))
		}
		for i, sl := range subLinks {
			gl := g.Links[p.Domains[d].Links[i]]
			if nodeMap[sl.Sender] != gl.Sender || nodeMap[sl.Receiver] != gl.Receiver ||
				nodeMap[sl.AP] != gl.AP || sl.Downlink != gl.Downlink {
				t.Fatalf("domain %d link %d: subnet %v maps to %v/%v/%v, want %v",
					d, i, sl, nodeMap[sl.Sender], nodeMap[sl.Receiver], nodeMap[sl.AP], gl)
			}
		}
		// RSS restriction matches the global matrix.
		for i := range nodeMap {
			for j := range nodeMap {
				if i == j {
					continue
				}
				if sub.RSS[i][j] != net.RSS[nodeMap[i]][nodeMap[j]] {
					t.Fatalf("domain %d RSS[%d][%d] mismatch", d, i, j)
				}
			}
		}
	}
}

func TestGridCampusDeterminism(t *testing.T) {
	a := GridCampus(7, 4, 3, 2)
	b := GridCampus(7, 4, 3, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GridCampus not deterministic for equal seeds")
	}
	c := GridCampus(8, 4, 3, 2)
	if reflect.DeepEqual(a.RSS, c.RSS) {
		t.Fatal("GridCampus identical across different seeds")
	}
}

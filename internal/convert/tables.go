package convert

import (
	"sort"

	"repro/internal/phy"
	"repro/internal/topo"
)

// tables are the converter's per-topology precomputed structures and
// reusable scratch. Everything here is derived from the conflict graph (and
// the trigger floor) alone, so it is built once, lazily, on the first
// conversion and shared by every batch after that. None of it changes the
// passes' output — the tables only let the greedy scans skip candidates the
// original loops would have rejected anyway.
type tables struct {
	// candByTarget[t] lists every node n (≠ t) with RSS[n][t] above the
	// trigger floor, strongest first — the scan order of assignTriggers'
	// argmax. candRSS holds the matching RSS values so the inner loop never
	// touches the RSS matrix.
	candByTarget [][]phy.NodeID
	candRSS      [][]float64

	// linkTrigMask[id] has bit n set when link id can trigger node n
	// (topo.CanTriggerNode), packed 64 nodes per word. ROPInsert ORs entry
	// masks into a slot mask and tests AP bits instead of rescanning
	// entries × endpoints.
	linkTrigMask [][]uint64
	nodeWords    int

	// Scratch reused across assignTriggers calls, reset via the touched
	// lists (never cleared wholesale).
	outbound   []int          // per-node outbound signature count
	candIdx    []int32        // node → index in the current cands list, -1 when absent
	targets    [][]phy.NodeID // per-node accumulated broadcast targets
	fromMark   []bool         // per-node membership flag for touched
	touched    []phy.NodeID   // nodes with broadcast state this call
	candsBuf   []phy.NodeID   // the cands list itself
	inboundBuf []int

	// Scratch for buildSlot.
	orderBuf   []int
	coverBuf   []int
	blockedBuf []uint64
	realStamp  []int // per-link stamp marking strict entries of the current slot
	realEpoch  int

	// Scratch for ROPInsert.
	slotMaskBuf []uint64
}

// buildTables precomputes the trigger tables for graph g.
func buildTables(g *topo.ConflictGraph) *tables {
	n := g.Net.NumNodes()
	t := &tables{nodeWords: (n + 63) / 64}
	t.candByTarget = make([][]phy.NodeID, n)
	t.candRSS = make([][]float64, n)
	for target := 0; target < n; target++ {
		var nodes []phy.NodeID
		for cand := 0; cand < n; cand++ {
			if cand == target {
				continue
			}
			if g.Net.RSS[phy.NodeID(cand)][phy.NodeID(target)] >= topo.TriggerFloorDBm {
				nodes = append(nodes, phy.NodeID(cand))
			}
		}
		// Strongest first; equal-RSS runs are scanned as a group by
		// assignTriggers, so their relative order does not matter.
		sort.SliceStable(nodes, func(a, b int) bool {
			return g.Net.RSS[nodes[a]][phy.NodeID(target)] > g.Net.RSS[nodes[b]][phy.NodeID(target)]
		})
		rss := make([]float64, len(nodes))
		for i, nd := range nodes {
			rss[i] = g.Net.RSS[nd][phy.NodeID(target)]
		}
		t.candByTarget[target] = nodes
		t.candRSS[target] = rss
	}

	t.linkTrigMask = make([][]uint64, len(g.Links))
	words := make([]uint64, len(g.Links)*t.nodeWords)
	for id, l := range g.Links {
		t.linkTrigMask[id] = words[id*t.nodeWords : (id+1)*t.nodeWords]
		for nd := 0; nd < n; nd++ {
			if g.CanTriggerNode(l, phy.NodeID(nd)) {
				t.linkTrigMask[id][nd>>6] |= 1 << (uint(nd) & 63)
			}
		}
	}

	t.outbound = make([]int, n)
	t.candIdx = make([]int32, n)
	for i := range t.candIdx {
		t.candIdx[i] = -1
	}
	t.targets = make([][]phy.NodeID, n)
	t.fromMark = make([]bool, n)
	t.realStamp = make([]int, len(g.Links))
	t.blockedBuf = make([]uint64, (len(g.Links)+63)/64)
	t.slotMaskBuf = make([]uint64, t.nodeWords)
	t.orderBuf = make([]int, len(g.Links))
	return t
}

// tab returns the converter's tables, building them on first use.
func (c *Converter) tab() *tables {
	if c.tables == nil {
		c.tables = buildTables(c.G)
	}
	return c.tables
}

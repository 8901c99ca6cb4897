// Causal trigger-chain analysis: records carrying span annotations (sp/pa)
// form a forest — slot transmissions, boundary broadcasts, triggers, packet
// lifecycles and poll reports hang off the span that caused them. The
// analyzer rebuilds the forest and reports chain depth, per-chain critical
// path and per-chain airtime.

package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// spanNode is one node of the causal forest.
type spanNode struct {
	id     int64
	parent int64 // 0 = root
	node   int   // simulator node that opened the span
	seen   bool  // a record with Span == id was observed (not just referenced)

	first, last sim.Time // event-time extent of the span and its leaf events
	air         sim.Time // airtime of transmissions carried on this span

	children []int64
}

// chainAnalyzer accumulates span records of one run. Feed every record to
// Observe in trace order, then Report.
type chainAnalyzer struct {
	spans     map[int64]*spanNode
	depthDist map[int64]int64 // trigger cascade depth → trigger count
}

func newChainAnalyzer() *chainAnalyzer {
	return &chainAnalyzer{spans: map[int64]*spanNode{}, depthDist: map[int64]int64{}}
}

func (c *chainAnalyzer) get(id int64) *spanNode {
	sn, ok := c.spans[id]
	if !ok {
		sn = &spanNode{id: id}
		c.spans[id] = sn
	}
	return sn
}

// Observe feeds one record. Records without span annotations are ignored;
// parent-only records (rop_poll reports, collision outcomes) extend the
// parent span's extent without opening a node.
func (c *chainAnalyzer) Observe(rec obs.Record) {
	if rec.Kind == obs.KindTrigger && rec.Span != 0 {
		c.depthDist[rec.Value]++
	}
	if rec.Span == 0 && rec.Parent == 0 {
		return
	}
	if rec.Span == 0 {
		sn := c.get(rec.Parent)
		if rec.At > sn.last {
			sn.last = rec.At
		}
		return
	}
	sn := c.get(rec.Span)
	if !sn.seen {
		sn.seen = true
		sn.first = rec.At
		sn.node = rec.Node
	}
	if rec.At > sn.last {
		sn.last = rec.At
	}
	if rec.Kind == obs.KindTxStart {
		sn.air += rec.Dur
	}
	if rec.Parent != 0 && sn.parent == 0 {
		sn.parent = rec.Parent
		p := c.get(rec.Parent)
		p.children = append(p.children, rec.Span)
	}
}

// chainSummary is one root's subtree rolled up.
type chainSummary struct {
	root     *spanNode
	spans    int
	depth    int      // tree depth (nodes on the longest root→leaf path)
	end      sim.Time // latest event time anywhere in the subtree
	air      sim.Time
	critical sim.Time // end − root start: the chain's critical-path latency
}

// chainReport is the run-level rollup Report returns.
type chainReport struct {
	spans     int
	chains    []chainSummary // sorted: largest span count first, then root id
	depthDist map[int64]int64
}

// Report rebuilds the forest. Spans that were only referenced (a parent id
// that never appeared as a record's own span — possible in truncated traces)
// root their orphaned children.
func (c *chainAnalyzer) Report() chainReport {
	rep := chainReport{depthDist: c.depthDist}
	var roots []*spanNode
	for _, sn := range c.spans {
		if !sn.seen {
			continue
		}
		rep.spans++
		if sn.parent == 0 || !c.spans[sn.parent].seen {
			roots = append(roots, sn)
		}
	}
	for _, root := range roots {
		s := chainSummary{root: root}
		// Iterative DFS with explicit depth; spans form a tree by
		// construction (each node's parent is fixed on first sight).
		type frame struct {
			id    int64
			depth int
		}
		stack := []frame{{root.id, 1}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sn := c.spans[f.id]
			s.spans++
			if f.depth > s.depth {
				s.depth = f.depth
			}
			if sn.last > s.end {
				s.end = sn.last
			}
			s.air += sn.air
			for _, ch := range sn.children {
				stack = append(stack, frame{ch, f.depth + 1})
			}
		}
		s.critical = s.end - root.first
		rep.chains = append(rep.chains, s)
	}
	sort.Slice(rep.chains, func(a, b int) bool {
		if rep.chains[a].spans != rep.chains[b].spans {
			return rep.chains[a].spans > rep.chains[b].spans
		}
		return rep.chains[a].root.id < rep.chains[b].root.id
	})
	return rep
}

// write renders the chain-analysis section; max caps the per-chain listing.
func (rep chainReport) write(w io.Writer, max int) {
	if rep.spans == 0 {
		return
	}
	maxDepth := 0
	for _, ch := range rep.chains {
		if ch.depth > maxDepth {
			maxDepth = ch.depth
		}
	}
	fmt.Fprintf(w, "trigger chains: %d chains over %d spans, deepest tree %d\n",
		len(rep.chains), rep.spans, maxDepth)
	if len(rep.depthDist) > 0 {
		// The distribution can span thousands of distinct depths (a healthy
		// chain lives the whole run); summarize by quantiles.
		keys := make([]int64, 0, len(rep.depthDist))
		total := int64(0)
		for k, n := range rep.depthDist {
			keys = append(keys, k)
			total += n
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		quantile := func(q float64) int64 {
			rank := int64(math.Ceil(q * float64(total)))
			if rank < 1 {
				rank = 1
			}
			var seen int64
			for _, k := range keys {
				seen += rep.depthDist[k]
				if seen >= rank {
					return k
				}
			}
			return keys[len(keys)-1]
		}
		fmt.Fprintf(w, "  trigger cascade depth: %d triggers, p50 %d  p95 %d  max %d\n",
			total, quantile(0.5), quantile(0.95), keys[len(keys)-1])
	}
	n := len(rep.chains)
	if n > max {
		n = max
	}
	fmt.Fprintf(w, "  longest chains (top %d of %d):\n", n, len(rep.chains))
	for _, ch := range rep.chains[:n] {
		fmt.Fprintf(w, "    span %-6d n%-3d @%-12v %4d spans  depth %-3d critical path %-12v airtime %v\n",
			ch.root.id, ch.root.node, ch.root.first, ch.spans, ch.depth, ch.critical, ch.air)
	}
}

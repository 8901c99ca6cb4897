package topo

import (
	"math/bits"

	"repro/internal/phy"
)

// ConflictGraph is the link-interference graph G(V,E) the central server
// derives from the interference map (paper §3): vertices are links, an edge
// means the two links cannot transmit concurrently. Independent sets of the
// graph may share a slot.
type ConflictGraph struct {
	Net   *Network
	Links []*Link
	cfg   phy.Config
	// adjBits is the symmetric adjacency as a bitset (row-major, 64 links
	// per word), so the hot independent-set scan touches one word per 64
	// candidates instead of one bool per pair.
	adjBits  [][]uint64
	adjWords int
	// apConflict caches APConflict for every AP pair (indexed through
	// apIndex), precomputed from per-AP link masks at construction — the
	// converter's ROP-sharing checks would otherwise rescan all link pairs
	// on every call.
	apIndex    map[phy.NodeID]int
	apConflict [][]bool
}

// NewConflictGraph computes the conflict graph for the given links at the
// given data rate: two links conflict when they share a node or when their
// concurrent exchanges interfere. An exchange is bidirectional — data from
// the sender plus the link-layer ACK from the receiver — so the test covers
// data-vs-data, data-vs-ACK (slots can be misaligned by tens of µs while
// relative scheduling converges) and ACK-vs-ACK corruption.
//
// A transmission from node x breaks link b (not incident to x) when x drags
// b's data SINR at b.Receiver or its ACK SINR at b.Sender below the rate
// threshold plus ConflictMarginDB. Links a and b conflict when an endpoint
// of either breaks the other. The graph is built per interferer: one row of
// x's interference-plus-noise at every node, then one pair of compares per
// link b, and each broken b becomes an edge to every link incident to x.
func NewConflictGraph(net *Network, links []*Link, cfg phy.Config, rate phy.Rate) *ConflictGraph {
	g := &ConflictGraph{Net: net, Links: links, cfg: cfg}
	n := len(links)
	g.adjWords = (n + 63) / 64
	g.adjBits = make([][]uint64, n)
	rows := make([]uint64, n*g.adjWords)
	for i := range g.adjBits {
		g.adjBits[i] = rows[i*g.adjWords : (i+1)*g.adjWords]
	}

	// incident[x] lists the links with node x as an endpoint; every pair of
	// them shares x and so conflicts.
	incident := make([][]int, net.NumNodes())
	for i, l := range links {
		incident[l.Sender] = append(incident[l.Sender], i)
		incident[l.Receiver] = append(incident[l.Receiver], i)
	}
	for _, inc := range incident {
		for _, a := range inc {
			for _, b := range inc {
				if a != b {
					g.adjBits[a][b>>6] |= 1 << (uint(b) & 63)
				}
			}
		}
	}

	thr := phy.SNRThresholdDB(rate) + ConflictMarginDB
	data := make([]float64, n) // RSS of b's data at b.Receiver
	ack := make([]float64, n)  // RSS of b's ACK at b.Sender
	for i, b := range links {
		data[i] = net.RSS[b.Sender][b.Receiver]
		ack[i] = net.RSS[b.Receiver][b.Sender]
	}
	noiseMw := phy.DBmToMw(cfg.NoiseDBm)
	unmeasured := phy.MwToDBm(phy.DBmToMw(UnmeasuredDBm) + noiseMw)
	interf := make([]float64, net.NumNodes()) // x's interference plus noise, dBm
	for x, inc := range incident {
		if len(inc) == 0 {
			continue
		}
		for d, rss := range net.RSS[x] {
			if rss == UnmeasuredDBm {
				interf[d] = unmeasured
			} else {
				interf[d] = phy.MwToDBm(phy.DBmToMw(rss) + noiseMw)
			}
		}
		for bi, b := range links {
			if int(b.Sender) == x || int(b.Receiver) == x {
				continue
			}
			if data[bi]-interf[b.Receiver] < thr || ack[bi]-interf[b.Sender] < thr {
				for _, a := range inc {
					g.adjBits[a][bi>>6] |= 1 << (uint(bi) & 63)
					g.adjBits[bi][a>>6] |= 1 << (uint(a) & 63)
				}
			}
		}
	}
	g.buildAPConflict()
	return g
}

// buildAPConflict precomputes the AP-pair conflict relation: ap1 and ap2
// conflict when the union of ap1's link rows meets ap2's link mask.
func (g *ConflictGraph) buildAPConflict() {
	g.apIndex = map[phy.NodeID]int{}
	var reach, mask [][]uint64
	for li, l := range g.Links {
		i, ok := g.apIndex[l.AP]
		if !ok {
			i = len(reach)
			g.apIndex[l.AP] = i
			reach = append(reach, make([]uint64, g.adjWords))
			mask = append(mask, make([]uint64, g.adjWords))
		}
		mask[i][li>>6] |= 1 << (uint(li) & 63)
		for w, row := range g.adjBits[li] {
			reach[i][w] |= row
		}
	}
	g.apConflict = make([][]bool, len(reach))
	for i := range reach {
		g.apConflict[i] = make([]bool, len(reach))
		for j := range mask {
			for w, m := range mask[j] {
				if reach[i][w]&m != 0 {
					g.apConflict[i][j] = true
					break
				}
			}
		}
	}
}

// ConflictMarginDB is the scheduling safety margin: concurrency requires the
// pairwise SINR to clear the decode threshold by this much. The conflict
// graph is pairwise, but a slot may hold several concurrent exchanges whose
// interference adds; the margin absorbs the aggregate of a few comparable
// interferers (3 dB covers two equal ones, and weaker tails).
const ConflictMarginDB = 3

// Conflicts reports whether links a and b (by ID) may not share a slot.
func (g *ConflictGraph) Conflicts(a, b int) bool {
	return g.adjBits[a][b>>6]&(1<<(uint(b)&63)) != 0
}

// Degree returns the number of links conflicting with link id.
func (g *ConflictGraph) Degree(id int) int {
	d := 0
	for _, w := range g.adjBits[id] {
		d += bits.OnesCount64(w)
	}
	return d
}

// SendersHear reports whether the two links' senders are within carrier-sense
// range of each other (in either direction — carrier sensing is energy
// detection, so the stronger direction governs).
func (g *ConflictGraph) SendersHear(a, b int) bool {
	la, lb := g.Links[a], g.Links[b]
	return g.Net.RSS[la.Sender][lb.Sender] >= g.cfg.CSThreshDBm ||
		g.Net.RSS[lb.Sender][la.Sender] >= g.cfg.CSThreshDBm
}

// Hidden reports whether links a and b form a hidden pair: they conflict but
// their senders cannot sense each other, so DCF collides them.
func (g *ConflictGraph) Hidden(a, b int) bool {
	if a == b || g.Links[a].Shares(g.Links[b]) {
		return false
	}
	return g.Conflicts(a, b) && !g.SendersHear(a, b)
}

// Exposed reports whether links a and b form an exposed pair: they could
// transmit concurrently, but their senders sense each other, so DCF
// serialises them needlessly.
func (g *ConflictGraph) Exposed(a, b int) bool {
	if a == b || g.Links[a].Shares(g.Links[b]) {
		return false
	}
	return !g.Conflicts(a, b) && g.SendersHear(a, b)
}

// CountHiddenExposed tallies hidden and exposed pairs over all unordered link
// pairs, the statistic the paper reports for T(10,2) ("10 hidden link pairs
// and 62 exposed link pairs out of 720 possible link pairs").
func (g *ConflictGraph) CountHiddenExposed() (hidden, exposed, total int) {
	n := len(g.Links)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if g.Hidden(i, j) {
				hidden++
			}
			if g.Exposed(i, j) {
				exposed++
			}
		}
	}
	return
}

// TriggerFloorDBm is the weakest RSS at which the server plans a signature
// trigger. The 127-chip Gold correlator works ~21 dB below the data decode
// threshold, but the planner stays conservative and requires the signature to
// arrive above the noise floor with margin.
const TriggerFloorDBm = -90

// CanTriggerNode reports whether link l can trigger node n: the signature
// sent by l's sender or receiver reaches n (paper §3.3 definition).
func (g *ConflictGraph) CanTriggerNode(l *Link, n phy.NodeID) bool {
	if l.Sender == n || l.Receiver == n {
		return true
	}
	return g.Net.RSS[l.Sender][n] >= TriggerFloorDBm ||
		g.Net.RSS[l.Receiver][n] >= TriggerFloorDBm
}

// APConflict reports whether any link of ap1 conflicts with any link of ap2,
// the condition under which two APs may NOT share an ROP slot (paper §3.3).
func (g *ConflictGraph) APConflict(ap1, ap2 phy.NodeID) bool {
	i, ok1 := g.apIndex[ap1]
	j, ok2 := g.apIndex[ap2]
	if !ok1 || !ok2 {
		return false // an AP with no links conflicts with nothing
	}
	return g.apConflict[i][j]
}

// MaximalIndependentSetInto greedily grows an independent set containing
// the seed links (which must themselves be independent), considering
// candidates in the given order. It returns link IDs. This implements both
// the RAND scheduler's slot construction and the converter's fake-link
// maximal cover. Scratch is the caller's: set receives the result (reset to
// set[:0]) and blocked must hold at least (len(Links)+63)/64 words (nil
// allocates); the bitset replaces a candidate-vs-set rescan with one word
// test per candidate.
func (g *ConflictGraph) MaximalIndependentSetInto(set []int, blocked []uint64, seed []int, order []int) []int {
	if blocked == nil {
		blocked = make([]uint64, g.adjWords)
	} else {
		blocked = blocked[:g.adjWords]
		for i := range blocked {
			blocked[i] = 0
		}
	}
	set = append(set[:0], seed...)
	for _, s := range set {
		blocked[s>>6] |= 1 << (uint(s) & 63)
		for w, bits := range g.adjBits[s] {
			blocked[w] |= bits
		}
	}
	for _, cand := range order {
		if blocked[cand>>6]&(1<<(uint(cand)&63)) != 0 {
			continue
		}
		set = append(set, cand)
		blocked[cand>>6] |= 1 << (uint(cand) & 63)
		for w, bits := range g.adjBits[cand] {
			blocked[w] |= bits
		}
	}
	return set
}

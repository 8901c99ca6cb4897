// Package stats computes the evaluation metrics the paper reports:
// per-link and aggregate throughput, average packet delay, Jain's fairness
// index, empirical CDFs, and the transmission-misalignment probe of Fig 11.
package stats

import (
	"math"
	"sort"

	"repro/internal/mac"
	"repro/internal/sim"
)

// LinkStats accumulates outcomes for one link.
type LinkStats struct {
	DeliveredPkts int
	DeliveredB    int64
	DroppedPkts   int
	DelaySum      sim.Time
}

// Collector implements mac.Events over a fixed set of links.
type Collector struct {
	links []LinkStats
	start sim.Time
}

// NewCollector sizes the collector for numLinks links, measuring from the
// given start time (deliveries before it are ignored — warm-up).
func NewCollector(numLinks int, start sim.Time) *Collector {
	return &Collector{links: make([]LinkStats, numLinks), start: start}
}

// Delivered implements mac.Events.
func (c *Collector) Delivered(p *mac.Packet, now sim.Time) {
	if now < c.start {
		return
	}
	s := &c.links[p.Link]
	s.DeliveredPkts++
	s.DeliveredB += int64(p.Bytes)
	s.DelaySum += now - p.Enqueued
}

// Dropped implements mac.Events.
func (c *Collector) Dropped(p *mac.Packet, now sim.Time) {
	if now < c.start {
		return
	}
	c.links[p.Link].DroppedPkts++
}

// Merge folds another collector's per-link tallies into this one, link by
// link. Both collectors must track the same link set; shards of a split
// measurement window merge into exactly the serial totals (all fields are
// sums).
func (c *Collector) Merge(o *Collector) {
	if len(o.links) != len(c.links) {
		panic("stats: merging collectors with different link counts")
	}
	for id := range c.links {
		s, os := &c.links[id], &o.links[id]
		s.DeliveredPkts += os.DeliveredPkts
		s.DeliveredB += os.DeliveredB
		s.DroppedPkts += os.DroppedPkts
		s.DelaySum += os.DelaySum
	}
}

// MergeMapped folds collector o into c with a link-id translation: o's link
// i lands on c's link mapID(i). It is the cross-index-space variant of Merge
// a sharded run uses to fold each interference domain's collector (dense
// local link ids) into the campus-wide collector (global link ids).
func (c *Collector) MergeMapped(o *Collector, mapID func(int) int) {
	for id := range o.links {
		s, os := &c.links[mapID(id)], &o.links[id]
		s.DeliveredPkts += os.DeliveredPkts
		s.DeliveredB += os.DeliveredB
		s.DroppedPkts += os.DroppedPkts
		s.DelaySum += os.DelaySum
	}
}

// Link returns the accumulated statistics for a link.
func (c *Collector) Link(id int) LinkStats { return c.links[id] }

// ThroughputMbps returns a link's goodput over the measurement window ending
// at end.
func (c *Collector) ThroughputMbps(id int, end sim.Time) float64 {
	dur := (end - c.start).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(c.links[id].DeliveredB) * 8 / dur / 1e6
}

// AggregateMbps returns the summed goodput of all links.
func (c *Collector) AggregateMbps(end sim.Time) float64 {
	var total float64
	for id := range c.links {
		total += c.ThroughputMbps(id, end)
	}
	return total
}

// PerLinkMbps returns each link's goodput.
func (c *Collector) PerLinkMbps(end sim.Time) []float64 {
	out := make([]float64, len(c.links))
	for id := range c.links {
		out[id] = c.ThroughputMbps(id, end)
	}
	return out
}

// MeanDelay returns the average delivery delay across all links' delivered
// packets (the paper's "average delay per link" aggregates the same way).
func (c *Collector) MeanDelay() sim.Time {
	var sum sim.Time
	var n int
	for _, s := range c.links {
		sum += s.DelaySum
		n += s.DeliveredPkts
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// MeanDelayPerLink averages each link's own mean delay, weighting links
// equally — the paper's "average delay per link", which (unlike a
// packet-weighted mean) is not dominated by whichever links deliver most.
func (c *Collector) MeanDelayPerLink() sim.Time {
	var sum sim.Time
	var n int
	for _, s := range c.links {
		if s.DeliveredPkts == 0 {
			continue
		}
		sum += s.DelaySum / sim.Time(s.DeliveredPkts)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// Fairness returns Jain's index over per-link throughput.
func (c *Collector) Fairness(end sim.Time) float64 {
	return JainIndex(c.PerLinkMbps(end))
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) ∈ (0, 1]; 1 is
// perfectly fair. An all-zero allocation returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// CDF is an empirical cumulative distribution over added samples.
type CDF struct {
	xs     []float64
	sorted bool
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.xs = append(c.xs, x)
	c.sorted = false
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.xs) }

// Merge absorbs another CDF's samples. Merging per-shard CDFs in shard
// order yields exactly the samples a serial accumulation would hold, which
// is how the parallel experiment harness reduces worker results without a
// mutex (quantiles sort internally, so they are shard-order independent
// either way). The argument is left unchanged.
func (c *CDF) Merge(o *CDF) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	c.xs = append(c.xs, o.xs...)
	c.sorted = false
}

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.xs)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank
// interpolation; it panics on an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		panic("stats: quantile of empty CDF")
	}
	c.sort()
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	pos := q * float64(len(c.xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(c.xs) {
		return c.xs[len(c.xs)-1]
	}
	return c.xs[lo]*(1-frac) + c.xs[lo+1]*frac
}

// Points returns (x, F(x)) pairs for plotting/printing, one per sample.
func (c *CDF) Points() (xs, fs []float64) {
	c.sort()
	xs = append([]float64(nil), c.xs...)
	fs = make([]float64, len(xs))
	for i := range fs {
		fs[i] = float64(i+1) / float64(len(xs))
	}
	return xs, fs
}

// Misalignment tracks the per-slot spread of transmission start times, the
// Fig 11 metric: for each slot index, the maximum difference between the
// earliest and latest transmitter that was supposed to start
// "simultaneously". Transmitters are grouped: misalignment is only
// meaningful among nodes that share a reference chain (trigger-connected),
// so the spread is taken within each group and maximised over groups.
// Group -1 (or a single-group probe via plain Observe) compares everyone.
// State is kept only for slots that saw a transmitter, so the tracked range
// costs nothing up front however large it is.
type Misalignment struct {
	numSlots int
	slots    map[int][]groupSpan // by slot index; a handful of groups each
}

type groupSpan struct {
	group       int
	first, last sim.Time
}

// NewMisalignment tracks the first numSlots slots.
func NewMisalignment(numSlots int) *Misalignment {
	return &Misalignment{numSlots: numSlots, slots: map[int][]groupSpan{}}
}

// Observe records that a transmitter started slot idx at time t (single
// global group).
func (m *Misalignment) Observe(idx int, t sim.Time) {
	m.ObserveGroup(idx, t, 0)
}

// ObserveGroup records a slot start within a reference group.
func (m *Misalignment) ObserveGroup(idx int, t sim.Time, group int) {
	if idx < 0 || idx >= m.numSlots {
		return
	}
	spans := m.slots[idx]
	for i := range spans {
		if sp := &spans[i]; sp.group == group {
			sp.first = min(sp.first, t)
			sp.last = max(sp.last, t)
			return
		}
	}
	m.slots[idx] = append(spans, groupSpan{group: group, first: t, last: t})
}

// Max returns the worst within-group misalignment observed in slot idx, or 0
// if no group saw more than one transmitter.
func (m *Misalignment) Max(idx int) sim.Time {
	var worst sim.Time
	for _, sp := range m.slots[idx] {
		worst = max(worst, sp.last-sp.first)
	}
	return worst
}

// Slots returns how many slot indices are tracked.
func (m *Misalignment) Slots() int { return m.numSlots }

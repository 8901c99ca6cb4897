package strict

import "repro/internal/topo"

// RoundRobin cycles a seed pointer over the fixed link-ID order: each slot is
// seeded with the first backlogged link at or after the pointer, extended
// greedily in ID order from the seed onward (wrapping), and the pointer
// advances one past the seed. Unlike RAND's rotation queue — where every
// scheduled link moves to the back — the pointer here moves exactly one
// position per slot, so heavily-scheduled links come around again sooner.
type RoundRobin struct {
	g    *topo.ConflictGraph
	next int // link ID at which the next slot's seed scan starts
}

// NewRoundRobin builds the scheduler over a conflict graph.
func NewRoundRobin(g *topo.ConflictGraph) *RoundRobin { return &RoundRobin{g: g} }

// AppendSlot implements Scheduler.
func (r *RoundRobin) AppendSlot(dst []int, backlog func(link int) int) []int {
	n := len(r.g.Links)
	seed := -1
	for i := 0; i < n; i++ {
		id := (r.next + i) % n
		if backlog(id) > 0 {
			seed = id
			break
		}
	}
	if seed < 0 {
		return nil
	}
	start := len(dst)
	dst = append(dst, seed)
	for i := 1; i < n; i++ {
		id := (seed + i) % n
		if backlog(id) > 0 && !conflictsAny(r.g, id, dst[start:]) {
			dst = append(dst, id)
		}
	}
	r.next = (seed + 1) % n
	return dst
}

func init() {
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:    "RoundRobin",
		Aliases: []string{"rr"},
		Build:   func(g *topo.ConflictGraph) Scheduler { return NewRoundRobin(g) },
	})
}

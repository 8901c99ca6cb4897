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
	buf  batchBuf
}

// NewRoundRobin builds the scheduler over a conflict graph.
func NewRoundRobin(g *topo.ConflictGraph) *RoundRobin { return &RoundRobin{g: g} }

// NextSlot implements Scheduler.
func (r *RoundRobin) NextSlot(backlog func(link int) int) Slot {
	n := len(r.g.Links)
	if n == 0 {
		return nil
	}
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
	slot := Slot{seed}
	for i := 1; i < n; i++ {
		id := (seed + i) % n
		if backlog(id) <= 0 {
			continue
		}
		ok := true
		for _, s := range slot {
			if r.g.Conflicts(id, s) {
				ok = false
				break
			}
		}
		if ok {
			slot = append(slot, id)
		}
	}
	r.next = (seed + 1) % n
	return slot
}

// Batch implements Scheduler.
func (r *RoundRobin) Batch(est []int, maxSlots int) Schedule {
	return r.buf.fill(r, est, maxSlots)
}

func init() {
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:    "RoundRobin",
		Aliases: []string{"rr"},
		Build:   func(g *topo.ConflictGraph) Scheduler { return NewRoundRobin(g) },
	})
}

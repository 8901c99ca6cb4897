package strict

import (
	"cmp"
	"slices"

	"repro/internal/topo"
)

// weightedDecay multiplies each link's service history once per slot, so
// past service fades geometrically: the scheduler remembers roughly the
// last ten slots of service.
const weightedDecay = 0.9

// Weighted is a proportional-fair-flavoured scheduler: each slot is built
// greedily in descending order of priority backlog(id) / (1 + service(id)),
// where service is an exponentially-decayed count of slots the link was
// scheduled in. Backlogged links that have been served a lot rank below
// backlogged links that have not — the classic PF trade of instantaneous
// demand against service history. Ties break by higher backlog, then lower
// link ID, so schedules are deterministic.
type Weighted struct {
	g       *topo.ConflictGraph
	service []float64
	// cands is AppendSlot's candidate buffer, reused slot to slot.
	cands []weightedCand
}

// weightedCand is one backlogged link, its backlog and its priority.
type weightedCand struct {
	id, q int
	prio  float64
}

// NewWeighted builds the scheduler over a conflict graph.
func NewWeighted(g *topo.ConflictGraph) *Weighted {
	return &Weighted{g: g, service: make([]float64, len(g.Links))}
}

// AppendSlot implements Scheduler.
func (w *Weighted) AppendSlot(dst []int, backlog func(link int) int) []int {
	w.cands = w.cands[:0]
	for id := range w.g.Links {
		if q := backlog(id); q > 0 {
			w.cands = append(w.cands, weightedCand{id, q, float64(q) / (1 + w.service[id])})
		}
	}
	if len(w.cands) == 0 {
		return nil
	}
	slices.SortFunc(w.cands, func(a, b weightedCand) int {
		return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(b.q, a.q), cmp.Compare(a.id, b.id))
	})
	n := len(dst)
	for _, c := range w.cands {
		if !conflictsAny(w.g, c.id, dst[n:]) {
			dst = append(dst, c.id)
		}
	}
	for i := range w.service {
		w.service[i] *= weightedDecay
	}
	for _, id := range dst[n:] {
		w.service[id]++
	}
	return dst
}

func init() {
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:    "Weighted",
		Aliases: []string{"pf", "proportional-fair"},
		Build:   func(g *topo.ConflictGraph) Scheduler { return NewWeighted(g) },
	})
}

package strict

import (
	"testing"

	"repro/internal/topo"
)

func TestRoundRobinSeedCycles(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false) // conflicts {0,1},{2,3}
	r := NewRoundRobin(g)
	all := func(int) int { return 1 }
	// The seed pointer advances one link per slot, so the first element of
	// four consecutive saturated slots walks 0,1,2,3.
	for want := 0; want < 4; want++ {
		slot := r.AppendSlot(nil, all)
		if len(slot) == 0 {
			t.Fatal("saturated network produced empty slot")
		}
		if slot[0] != want {
			t.Errorf("slot %d seed = %d, want %d (slot %v)", want, slot[0], want, slot)
		}
	}
}

func TestRoundRobinSkipsIdleSeeds(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	r := NewRoundRobin(g)
	q := []int{0, 0, 1, 1}
	slot := r.AppendSlot(nil, func(id int) int { return q[id] })
	if len(slot) == 0 || slot[0] != 2 {
		t.Errorf("slot %v should seed at first backlogged link 2", slot)
	}
	if s := r.AppendSlot(nil, func(int) int { return 0 }); s != nil {
		t.Errorf("idle slot = %v", s)
	}
}

func TestRoundRobinSlotIndependence(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, true)
	r := NewRoundRobin(g)
	for i := 0; i < 20; i++ {
		slot := r.AppendSlot(nil, func(int) int { return 1 })
		if len(slot) == 0 {
			t.Fatal("saturated network produced empty slot")
		}
		for a := 0; a < len(slot); a++ {
			for b := a + 1; b < len(slot); b++ {
				if g.Conflicts(slot[a], slot[b]) {
					t.Fatalf("slot %v conflicts", slot)
				}
			}
		}
	}
}

func TestRoundRobinBatchConservation(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	r := NewRoundRobin(g)
	est := []int{3, 2, 0, 5}
	batch := (&Batcher{S: r}).Batch(est, 20)
	got := make([]int, 4)
	for _, slot := range batch {
		for _, id := range slot {
			got[id]++
		}
	}
	for id := range est {
		if got[id] != est[id] {
			t.Errorf("link %d scheduled %d, want %d", id, got[id], est[id])
		}
	}
}

func TestWeightedAlternatesUnderConstantBacklog(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false) // conflicts {0,1},{2,3}
	w := NewWeighted(g)
	// Links 0 and 1 conflict; 0 always has the deeper queue. LQF would pick 0
	// every slot and starve 1; proportional fairness must alternate once 0's
	// service history builds up.
	q := []int{5, 4, 0, 0}
	winners := map[int]int{}
	for i := 0; i < 10; i++ {
		slot := w.AppendSlot(nil, func(id int) int { return q[id] })
		if len(slot) == 0 {
			t.Fatal("backlogged network produced empty slot")
		}
		winners[slot[0]]++
	}
	if winners[0] == 0 || winners[1] == 0 {
		t.Errorf("winners %v: both conflicting links should lead some slots", winners)
	}
}

func TestWeightedBatchConservation(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	w := NewWeighted(g)
	est := []int{3, 2, 0, 5}
	batch := (&Batcher{S: w}).Batch(est, 20)
	got := make([]int, 4)
	for _, slot := range batch {
		for _, id := range slot {
			got[id]++
		}
	}
	for id := range est {
		if got[id] != est[id] {
			t.Errorf("link %d scheduled %d, want %d", id, got[id], est[id])
		}
	}
}

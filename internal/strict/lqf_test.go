package strict

import (
	"testing"

	"repro/internal/topo"
)

func TestLQFPrefersLongQueues(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false) // conflicts {0,1},{2,3}
	l := NewLQF(g)
	// Link 1 has the deepest queue: it must win its conflict pair.
	q := []int{2, 9, 3, 1}
	slot := l.AppendSlot(nil, func(id int) int { return q[id] })
	has := map[int]bool{}
	for _, id := range slot {
		has[id] = true
	}
	if !has[1] || has[0] {
		t.Errorf("slot %v should contain 1 (q=9) and not 0 (q=2)", slot)
	}
	if !has[2] || has[3] {
		t.Errorf("slot %v should contain 2 (q=3) over 3 (q=1)", slot)
	}
	if s := l.AppendSlot(nil, func(int) int { return 0 }); s != nil {
		t.Errorf("idle slot = %v", s)
	}
}

func TestLQFSlotIndependence(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, true)
	l := NewLQF(g)
	slot := l.AppendSlot(nil, func(id int) int { return id + 1 })
	for a := 0; a < len(slot); a++ {
		for b := a + 1; b < len(slot); b++ {
			if g.Conflicts(slot[a], slot[b]) {
				t.Fatalf("slot %v conflicts", slot)
			}
		}
	}
	if len(slot) == 0 {
		t.Fatal("no slot built")
	}
}

func TestLQFBatchConservation(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	l := NewLQF(g)
	est := []int{3, 2, 0, 5}
	batch := (&Batcher{S: l}).Batch(est, 20)
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
	if est[3] != 5 {
		t.Error("Batch mutated its argument")
	}
}

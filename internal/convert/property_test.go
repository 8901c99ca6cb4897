package convert

import (
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/strict"
	"repro/internal/topo"
)

// TestConvertVerifyProperty fuzzes the pipeline: randomized topologies ×
// every registered scheduler × random backlogs (the fake-cover ablation mixed
// in), plus a churn workload, with Verify run on every converted plan. The
// invariants must never break.
func TestConvertVerifyProperty(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	schedulers := strict.Schedulers.Names()
	if len(schedulers) < 4 {
		t.Fatalf("registered schedulers = %v, want at least 4", schedulers)
	}
	feasible := 0
	for seed := int64(1); seed <= seeds; seed++ {
		tr := topo.RandomTrace(seed, 40, 800)
		rng := rand.New(rand.NewSource(seed))
		net, err := topo.BuildT(tr, 6, 2, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			continue // infeasible placement: skip, feasibility tracked below
		}
		feasible++
		g := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
		for _, name := range schedulers {
			s, err := strict.BuildScheduler(name, g)
			if err != nil {
				t.Fatalf("seed %d: BuildScheduler(%s): %v", seed, name, err)
			}
			batcher := strict.Batcher{S: s}
			c := New(g)
			c.DisableFakeCover = seed%3 == 1
			c.MaxInbound = 1 + int(seed)%2
			for batch := 0; batch < 4; batch++ {
				est := make([]int, len(g.Links))
				for i := range est {
					est[i] = rng.Intn(5) // random backlogs, zeros included
				}
				b := batcher.Batch(est, 12)
				// Pad with empty slots the way the engine does, so empty
				// relative slots (dead chains under the ablation) are covered.
				for len(b) < 6 {
					b = append(b, strict.Slot{})
				}
				p := c.ConvertPlan(b, net.APs)
				if err := Verify(p); err != nil {
					t.Errorf("seed %d scheduler %s batch %d: %v", seed, name, batch, err)
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible random topology; property never exercised")
	}
	t.Run("churn", testChurnVerify)
}

// testChurnVerify drives one converter per random topology through a churn
// workload — clients joining and leaving (links flipping active), backlogs
// drifting, and every fifth batch a return to a remembered demand state (an
// office emptying and refilling) — and verifies every plan.
func testChurnVerify(t *testing.T) {
	seeds := int64(8)
	batchesPerSeed := 40
	if testing.Short() {
		seeds, batchesPerSeed = 3, 20
	}
	feasible := 0
	for seed := int64(1); seed <= seeds; seed++ {
		tr := topo.RandomTrace(seed, 40, 800)
		rng := rand.New(rand.NewSource(seed * 7))
		net, err := topo.BuildT(tr, 6, 2, phy.DefaultConfig(), phy.Rate12, rng)
		if err != nil {
			continue
		}
		feasible++
		g := topo.NewConflictGraph(net, net.BuildLinks(true, true), phy.DefaultConfig(), phy.Rate12)
		sched, err := strict.BuildScheduler("lqf", g)
		if err != nil {
			t.Fatalf("seed %d: BuildScheduler: %v", seed, err)
		}
		batcher := strict.Batcher{S: sched}
		c := New(g)
		c.DisableFakeCover = seed%2 == 0

		backlog := make([]int, len(g.Links))
		active := make([]bool, len(g.Links))
		for i := range active {
			active[i] = true
			backlog[i] = rng.Intn(5)
		}
		snapBacklog := append([]int(nil), backlog...)
		snapActive := append([]bool(nil), active...)

		for batch := 0; batch < batchesPerSeed; batch++ {
			if batch%5 == 4 {
				copy(backlog, snapBacklog)
				copy(active, snapActive)
			} else {
				for k := 0; k < 2; k++ {
					active[rng.Intn(len(active))] = rng.Intn(3) == 0
				}
				for i := range backlog {
					if !active[i] {
						backlog[i] = 0
						continue
					}
					if backlog[i] += rng.Intn(3) - 1; backlog[i] < 0 {
						backlog[i] = 0
					}
				}
			}

			est := make([]int, len(backlog))
			for i, b := range backlog {
				if active[i] {
					est[i] = b
				}
			}
			b := batcher.Batch(est, len(g.Links))
			// Pad with empty slots to a multiple of len(g.Links): the cover
			// rotation then realigns at every batch boundary, so the returns
			// to the remembered state recur exactly.
			for len(b)%len(g.Links) != 0 || len(b) == 0 {
				b = append(b, strict.Slot{})
			}
			if err := Verify(c.ConvertPlan(b, net.APs)); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible random topology; churn property never exercised")
	}
}

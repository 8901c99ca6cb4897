package strict

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/topo"
)

func TestSchedulerRegistryBuiltins(t *testing.T) {
	for _, name := range []string{"RAND", "rand", "LQF", "lqf", "RoundRobin", "rr", "Weighted", "pf", "proportional-fair"} {
		d, ok := Schedulers.Lookup(name)
		if !ok {
			t.Fatalf("Schedulers.Lookup(%q) missing", name)
		}
		if d.Name == "" || d.Build == nil {
			t.Fatalf("Schedulers.Lookup(%q) = incomplete descriptor %+v", name, d)
		}
	}
	names := Schedulers.Names()
	want := []string{"LQF", "RAND", "RoundRobin", "Weighted"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Schedulers.Names() = %v, want %v", names, want)
	}
}

func TestBuildSchedulerByName(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, true)
	backlog := func(id int) int { return 1 + id%3 }
	build := func(name string) Scheduler {
		s, err := BuildScheduler(name, g)
		if err != nil {
			t.Fatalf("BuildScheduler(%q): %v", name, err)
		}
		return s
	}
	// "" builds the default policy, RAND.
	for _, name := range append(Schedulers.Names(), "") {
		// Every policy must build a working scheduler: one backlogged slot.
		slot := build(name).AppendSlot(nil, backlog)
		if len(slot) == 0 {
			t.Errorf("%s: backlogged network produced empty slot", name)
		}
		for a := 0; a < len(slot); a++ {
			for b := a + 1; b < len(slot); b++ {
				if g.Conflicts(slot[a], slot[b]) {
					t.Errorf("%s: slot %v conflicts", name, slot)
				}
			}
		}
		// Appending after other slots' links (a Batcher's buffer) leaves
		// them untouched and builds the same slot a fresh instance does.
		prefix := []int{-1, 7, -3}
		got := build(name).AppendSlot(append(make([]int, 0, 32), prefix...), backlog)
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%s: prefix %v became %v", name, prefix, got[:len(prefix)])
		}
		if !slices.Equal(got[len(prefix):], slot) {
			t.Errorf("%s: appended slot %v, fresh instance built %v", name, got[len(prefix):], slot)
		}
		// Once warm, a slot into a buffer with room allocates nothing, so
		// a DOMINO run under any policy allocates nothing per slot.
		s, dst := build(name), make([]int, 0, len(g.Links))
		dst = s.AppendSlot(dst, backlog)
		if allocs := testing.AllocsPerRun(100, func() { dst = s.AppendSlot(dst[:0], backlog) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations per slot, want 0", name, allocs)
		}
	}
}

func TestBuildSchedulerUnknown(t *testing.T) {
	g := graphFor(t, topo.Figure7(), true, false)
	_, err := BuildScheduler("nope", g)
	if err == nil {
		t.Fatal("BuildScheduler(nope) succeeded")
	}
	if !strings.Contains(err.Error(), "RAND") {
		t.Errorf("error %q should list registered names", err)
	}
}

func TestRegisterSchedulerConflictsAndUnregister(t *testing.T) {
	d := SchedulerDescriptor{
		Name:    "Toy",
		Aliases: []string{"toy2"},
		Build:   func(g *topo.ConflictGraph) Scheduler { return NewRAND(g) },
	}
	if err := Schedulers.Register(d); err != nil {
		t.Fatal(err)
	}
	defer Schedulers.Unregister("Toy")
	if err := Schedulers.Register(SchedulerDescriptor{Name: "toy2", Build: d.Build}); err == nil {
		t.Error("duplicate alias registration succeeded")
	}
	if err := Schedulers.Register(SchedulerDescriptor{Name: "Toy3"}); err == nil {
		t.Error("registration without Build succeeded")
	}
	if err := Schedulers.Register(SchedulerDescriptor{}); err == nil {
		t.Error("registration with empty name succeeded")
	}
	Schedulers.Unregister("Toy")
	if _, ok := Schedulers.Lookup("toy2"); ok {
		t.Error("alias survived Unregister")
	}
	for _, n := range Schedulers.Names() {
		if n == "Toy" {
			t.Error("canonical name survived Unregister")
		}
	}
}

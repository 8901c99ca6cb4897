package strict

import (
	"errors"

	"repro/internal/registry"
	"repro/internal/topo"
)

// SchedulerDescriptor is one registered strict scheduling policy. Engines
// resolve a policy purely by name, so adding a fifth scheduler is one
// Schedulers.MustRegister call — no edits to internal/domino or
// internal/core.
type SchedulerDescriptor struct {
	// Name is the canonical policy name ("RAND"). Lookup is case-insensitive,
	// so CLI spellings need no aliases unless they differ by more than case.
	Name string
	// Aliases are additional accepted names ("rr" for "RoundRobin").
	Aliases []string
	// Build constructs the scheduler over a conflict graph.
	Build func(g *topo.ConflictGraph) Scheduler
}

// Schedulers holds every strict scheduling policy; an empty name means the
// paper's RAND.
var Schedulers = registry.New("scheduler", "RAND", func(d *SchedulerDescriptor) (string, []string, error) {
	if d.Build == nil {
		return d.Name, d.Aliases, errors.New("Build is required")
	}
	return d.Name, d.Aliases, nil
})

// BuildScheduler builds the named policy ("" for the default) over g.
func BuildScheduler(name string, g *topo.ConflictGraph) (Scheduler, error) {
	d, err := Schedulers.Resolve(name)
	if err != nil {
		return nil, err
	}
	return d.Build(g), nil
}

func init() {
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:  "RAND",
		Build: func(g *topo.ConflictGraph) Scheduler { return NewRAND(g) },
	})
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:  "LQF",
		Build: func(g *topo.ConflictGraph) Scheduler { return NewLQF(g) },
	})
}

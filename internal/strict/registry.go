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
	// Summary is a one-line description for CLI listings.
	Summary string
	// DefaultConfig returns a pointer to a fresh config struct, or nil for
	// policies without knobs. Callers may mutate the value before Build.
	DefaultConfig func() any
	// Build constructs the scheduler over a conflict graph. cfg is the
	// (possibly tuned) value DefaultConfig returned — nil when DefaultConfig
	// is nil.
	Build func(g *topo.ConflictGraph, cfg any) (Scheduler, error)
}

// Schedulers holds every strict scheduling policy; an empty name means the
// paper's RAND.
var Schedulers = registry.New("scheduler", "RAND", func(d *SchedulerDescriptor) (string, []string, error) {
	if d.Build == nil {
		return d.Name, d.Aliases, errors.New("Build is required")
	}
	return d.Name, d.Aliases, nil
})

// BuildScheduler builds the named policy ("" for the default) over g with
// its default config.
func BuildScheduler(name string, g *topo.ConflictGraph) (Scheduler, error) {
	d, err := Schedulers.Resolve(name)
	if err != nil {
		return nil, err
	}
	var cfg any
	if d.DefaultConfig != nil {
		cfg = d.DefaultConfig()
	}
	return d.Build(g, cfg)
}

func init() {
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:    "RAND",
		Summary: "greedy maximal-independent-set with rotation-queue fairness (§4.2.1, after Ramanathan)",
		Build: func(g *topo.ConflictGraph, _ any) (Scheduler, error) {
			return NewRAND(g), nil
		},
	})
	Schedulers.MustRegister(SchedulerDescriptor{
		Name:    "LQF",
		Summary: "longest-queue-first greedy (max-weight flavoured)",
		Build: func(g *topo.ConflictGraph, _ any) (Scheduler, error) {
			return NewLQF(g), nil
		},
	})
}

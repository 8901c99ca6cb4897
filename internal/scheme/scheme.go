// Package scheme is the pluggable channel-access scheme registry. Each
// engine package self-describes with a Descriptor (name, default config,
// build function, conflict-graph requirement) and registers it at init time;
// the core run pipeline, the experiment drivers and the CLIs then construct
// engines purely by name, so adding a fifth scheme is one
// Registry.MustRegister call — no edits to internal/core or the consumers.
package scheme

import (
	"errors"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Params carries the scheme-independent knobs a scenario applies to every
// engine's default config before the tuning hooks run.
type Params struct {
	// Rate is the PHY data rate for data frames.
	Rate phy.Rate
	// PacketBytes is the datagram/segment size the traffic layer offers;
	// schemes that size internal frames from it (DOMINO's virtual frames)
	// read it here.
	PacketBytes int
}

// BuildContext is everything a scheme may wire an engine into: the event
// kernel, the shared medium, the link set, the conflict graph (nil unless
// the Descriptor asked for one) and the MAC event fan-out.
type BuildContext struct {
	Kernel *sim.Kernel
	Medium *phy.Medium
	Links  []*topo.Link
	// Graph is the link conflict graph; non-nil iff the scheme's Descriptor
	// set NeedsConflictGraph.
	Graph  *topo.ConflictGraph
	Events mac.Events
}

// Descriptor is one registered channel-access scheme.
type Descriptor struct {
	// Name is the canonical scheme name as printed in results ("DOMINO").
	// Lookup is case-insensitive, so CLI spellings need no aliases unless
	// they differ by more than case.
	Name string
	// Aliases are additional accepted names ("omni" for "Omniscient").
	Aliases []string
	// NeedsConflictGraph asks the pipeline to compute the link conflict
	// graph before Build (DCF does not need one; polling schemes do).
	NeedsConflictGraph bool
	// DefaultConfig returns a pointer to a fresh config struct with the
	// generic Params already applied. Tuning hooks and declarative
	// scheme_config overrides mutate the returned value before Build.
	DefaultConfig func(p Params) any
	// Build constructs the engine. cfg is the (possibly tuned) value
	// DefaultConfig returned.
	Build func(ctx BuildContext, cfg any) (mac.Engine, error)
	// Check, when non-nil, rejects a config Build would fail on for any
	// network: it is how spec validation and Build share one test of the
	// names and knobs a scheme_config may set.
	Check func(cfg any) error
}

// Observable is implemented by engines that accept the observability layer.
// The run pipeline hands the engine the whole per-run obs.Run; the engine
// pulls what it uses — the Tracer for record emission, the Spans allocator
// for causal trees, the queue sampler, and the packet-lifecycle hooks
// (PacketQueued / PacketDequeued). Engines not implementing it simply run
// untraced.
type Observable interface {
	WireObs(run *obs.Run)
}

// Registry holds every channel-access scheme. A scheme name is required:
// there is no default scheme.
var Registry = registry.New("scheme", "", func(d *Descriptor) (string, []string, error) {
	if d.DefaultConfig == nil || d.Build == nil {
		return d.Name, d.Aliases, errors.New("DefaultConfig and Build are required")
	}
	return d.Name, d.Aliases, nil
})

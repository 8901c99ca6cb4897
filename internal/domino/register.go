package domino

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// WireObs implements scheme.Observable: the engine pulls its trace sink,
// causal span allocator, packet-lifecycle hooks, queue-depth sampler and
// metrics registry from the per-run observability state.
func (e *Engine) WireObs(run *obs.Run) {
	e.Obs = run.Tracer()
	e.life = run
	e.sp = run.Spans()
	if qs := run.QueueSampler(); qs != nil {
		e.EnableQueueSampling(qs)
	}
	if m := run.Metrics(); m != nil {
		e.wireMetrics(m)
	}
}

func init() {
	scheme.Registry.MustRegister(scheme.Descriptor{
		Name:               "DOMINO",
		NeedsConflictGraph: true,
		DefaultConfig: func(p scheme.Params) any {
			cfg := DefaultConfig()
			cfg.Rate = p.Rate
			cfg.VirtualBytes = p.PacketBytes
			return &cfg
		},
		Check: func(cfg any) error {
			c, ok := cfg.(*Config)
			if !ok {
				return fmt.Errorf("domino: config %T, want *domino.Config", cfg)
			}
			return c.check()
		},
		Build: func(ctx scheme.BuildContext, cfg any) (mac.Engine, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("domino: Build got config %T, want *domino.Config", cfg)
			}
			// Everything New would panic on, as an error: bad names and
			// knobs, then a network too large for the signature code.
			if err := c.check(); err != nil {
				return nil, fmt.Errorf("domino: %w", err)
			}
			if err := c.fits(ctx.Graph.Net.NumNodes()); err != nil {
				return nil, fmt.Errorf("domino: %w", err)
			}
			return New(ctx.Kernel, ctx.Medium, ctx.Graph, ctx.Events, *c), nil
		},
	})
}

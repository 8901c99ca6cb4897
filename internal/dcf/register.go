package dcf

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// WireObs implements scheme.Observable: the engine pulls the trace sink and
// packet-lifecycle hooks from the per-run observability state and installs
// the queue-depth sampler on its link queues.
func (e *Engine) WireObs(run *obs.Run) {
	e.Obs = run.Tracer()
	e.life = run
	e.EnableQueueSampling(run.QueueSampler())
}

func init() {
	scheme.Registry.MustRegister(scheme.Descriptor{
		Name:    "DCF",
		Summary: "802.11 distributed coordination function baseline",
		DefaultConfig: func(p scheme.Params) any {
			cfg := DefaultConfig()
			cfg.Rate = p.Rate
			return &cfg
		},
		Build: func(ctx scheme.BuildContext, cfg any) (mac.Engine, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("dcf: Build got config %T, want *dcf.Config", cfg)
			}
			return New(ctx.Kernel, ctx.Medium, ctx.Links, ctx.Events, *c), nil
		},
	})
}

package centaur

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// WireObs implements scheme.Observable: CENTAUR emits typed epoch records,
// its stations stamp packet lifecycles, and causal spans tie scheduled
// downlinks to the epoch that planned them. Unlike dcf's WireObs it leaves
// the stations' tracer nil and samples no queue depths.
func (e *Engine) WireObs(run *obs.Run) {
	e.Obs = run.Tracer()
	e.Life = run
	e.sp = run.Spans()
}

func init() {
	scheme.Registry.MustRegister(scheme.Descriptor{
		Name:               "CENTAUR",
		NeedsConflictGraph: true,
		DefaultConfig: func(p scheme.Params) any {
			cfg := DefaultConfig()
			cfg.Rate = p.Rate
			return &cfg
		},
		Build: func(ctx scheme.BuildContext, cfg any) (mac.Engine, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("centaur: Build got config %T, want *centaur.Config", cfg)
			}
			return New(ctx.Kernel, ctx.Medium, ctx.Graph, ctx.Events, *c), nil
		},
	})
}

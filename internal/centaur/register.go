package centaur

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// WireObs implements scheme.Observable: CENTAUR emits typed epoch records,
// stamps packet lifecycles, and ties scheduled downlinks to the epoch that
// planned them via causal spans.
func (e *Engine) WireObs(run *obs.Run) {
	e.Obs = run.Tracer()
	e.life = run
	e.sp = run.Spans()
}

func init() {
	scheme.Registry.MustRegister(scheme.Descriptor{
		Name:               "CENTAUR",
		Summary:            "hybrid scheduled-downlink / DCF-uplink baseline",
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
		Checkpointer: func(e mac.Engine) scheme.EngineState {
			eng, ok := e.(*Engine)
			if !ok {
				return scheme.EngineState{Scheme: "CENTAUR"}
			}
			return scheme.EngineState{Scheme: "CENTAUR", Counters: map[string]int64{
				"epochs":       int64(eng.Epochs),
				"ack_timeouts": int64(eng.AckTimeouts),
				"drops":        int64(eng.Drops),
			}}
		},
	})
}

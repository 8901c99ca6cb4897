package strict

import (
	"fmt"

	"repro/internal/mac"
	"repro/internal/scheme"
)

func init() {
	scheme.Registry.MustRegister(scheme.Descriptor{
		Name:               "Omniscient",
		Aliases:            []string{"omni"},
		Summary:            "perfectly synchronized, perfect-knowledge upper bound (Fig 2)",
		NeedsConflictGraph: true,
		DefaultConfig: func(p scheme.Params) any {
			cfg := DefaultConfig()
			cfg.Rate = p.Rate
			return &cfg
		},
		Build: func(ctx scheme.BuildContext, cfg any) (mac.Engine, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("strict: Build got config %T, want *strict.Config", cfg)
			}
			return New(ctx.Kernel, ctx.Medium, ctx.Graph, ctx.Events, *c), nil
		},
	})
}

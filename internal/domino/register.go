package domino

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/scheme"
	"repro/internal/strict"
)

// WireObs implements scheme.Observable: the engine pulls its trace sink,
// causal span allocator, packet-lifecycle hooks, and queue-depth sampler
// from the per-run observability state.
func (e *Engine) WireObs(run *obs.Run) {
	e.Obs = run.Tracer()
	e.life = run
	e.sp = run.Spans()
	if qs := run.QueueSampler(); qs != nil {
		e.EnableQueueSampling(qs)
	}
}

func init() {
	scheme.MustRegister(scheme.Descriptor{
		Name:               "DOMINO",
		Summary:            "the paper's relative-scheduling system",
		NeedsConflictGraph: true,
		DefaultConfig: func(p scheme.Params) any {
			cfg := DefaultConfig()
			cfg.Rate = p.Rate
			cfg.VirtualBytes = p.PacketBytes
			cfg.MisalignSlots = p.MisalignSlots
			return &cfg
		},
		Build: func(ctx scheme.BuildContext, cfg any) (mac.Engine, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("domino: Build got config %T, want *domino.Config", cfg)
			}
			// Pre-validate the scheduler name so declarative specs get an
			// error instead of newServer's panic.
			if c.Scheduler != "" {
				if _, ok := strict.LookupScheduler(c.Scheduler); !ok {
					return nil, fmt.Errorf("domino: unknown scheduler %q (registered: %s)",
						c.Scheduler, strings.Join(strict.SchedulerNames(), ", "))
				}
			}
			// Same for the poller name and knobs: a trial Build catches bad
			// knob values (range errors) before New's panic.
			if c.Poller != "" {
				if _, ok := poll.Lookup(c.Poller); !ok {
					return nil, fmt.Errorf("domino: unknown poller %q (registered: %s)",
						c.Poller, strings.Join(poll.Names(), ", "))
				}
			}
			pollerName := c.Poller
			if pollerName == "" {
				pollerName = "ROP"
			}
			if _, err := poll.Build(pollerName, c.PollerConfig); err != nil {
				return nil, fmt.Errorf("domino: %v", err)
			}
			return New(ctx.Kernel, ctx.Medium, ctx.Graph, ctx.Events, *c), nil
		},
		Checkpointer: func(e mac.Engine) scheme.EngineState {
			eng, ok := e.(*Engine)
			if !ok {
				return scheme.EngineState{Scheme: "DOMINO"}
			}
			counters := map[string]int64{
				"slots":           int64(eng.Slots()),
				"data_sends":      int64(eng.DataSends),
				"fake_sends":      int64(eng.FakeSends),
				"polls":           int64(eng.Polls),
				"ack_misses":      int64(eng.AckMisses),
				"self_starts":     int64(eng.SelfStarts),
				"drops":           int64(eng.Drops),
				"poll_rounds":     int64(eng.PollRounds),
				"poll_collisions": int64(eng.PollCollisions),
			}
			// Merge each AP poller's own counters (UORA contention state) in
			// deterministic AP order, so checkpoint/restore digests verify the
			// poller replayed identically.
			apIDs := make([]int, 0, len(eng.aps))
			for id := range eng.aps {
				apIDs = append(apIDs, int(id))
			}
			sort.Ints(apIDs)
			for _, id := range apIDs {
				ap := eng.aps[phy.NodeID(id)]
				if ap.poller == nil {
					continue
				}
				for k, v := range ap.poller.State() {
					counters[k] += v
				}
			}
			return scheme.EngineState{Scheme: "DOMINO", Counters: counters}
		},
	})
}

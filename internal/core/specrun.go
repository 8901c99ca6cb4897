package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/registry"
	"repro/internal/spec"
)

// BuildScenario validates a declarative spec and resolves it into a
// runnable Scenario: topology built, links resolved, traffic mapped, PHY
// overrides applied, and scheme_config staged as the generic tune hook.
// Callers may still adjust the returned Scenario (attach tracers, override
// the metrics sink) before RunScenario.
func BuildScenario(sp spec.Spec) (Scenario, error) {
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	net, err := sp.Topology.Build(sp.Seed)
	if err != nil {
		return Scenario{}, fmt.Errorf("spec: topology: %w", err)
	}
	links, err := sp.BuildLinks(net)
	if err != nil {
		return Scenario{}, err
	}
	var kind TrafficKind
	switch sp.TrafficKind() {
	case "saturated":
		kind = Saturated
	case "udp":
		kind = UDPCBR
	case "tcp":
		kind = TCP
	default:
		return Scenario{}, fmt.Errorf("spec: unknown traffic kind %q", sp.Traffic.Kind)
	}
	sc := Scenario{
		Net:         net,
		Links:       links,
		Downlink:    sp.DownlinkEnabled(),
		Uplink:      sp.UplinkEnabled(),
		Scheme:      Scheme(sp.Scheme),
		Seed:        sp.Seed,
		Duration:    sp.Duration.Time(),
		Warmup:      sp.Warmup.Time(),
		Traffic:     kind,
		DownMbps:    sp.Traffic.DownMbps,
		UpMbps:      sp.Traffic.UpMbps,
		PacketBytes: sp.PacketBytes,
		Rate:        phy.Rate(sp.RateMbps),
	}
	if sp.Phy != nil {
		pcfg := phy.DefaultConfig()
		sp.Phy.Apply(&pcfg)
		sc.PhyConfig = &pcfg
	}
	if len(sp.SchemeConfig) > 0 {
		raw := sp.SchemeConfig
		sc.Tune = func(cfg any) error {
			return registry.Overlay(cfg, raw, "scheme_config", "field")
		}
	}
	if sp.Obs.Metrics {
		sc.Metrics = obs.NewMetrics()
	}
	return sc, nil
}

// RunE executes a declarative spec through the scheme registry. It is the
// error-returning entry point the -spec CLI mode and the example spec files
// run through; spec.Obs.TraceFile is the caller's concern (the CLIs open
// the file and attach the tracer before running).
func RunE(sp spec.Spec) (Result, error) {
	sc, err := BuildScenario(sp)
	if err != nil {
		return Result{}, err
	}
	return RunScenario(sc)
}

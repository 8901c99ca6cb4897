// Package spec is the declarative scenario layer: a validated,
// JSON-(de)serializable description of one simulation run — scheme name,
// topology reference, link set, traffic, PHY overrides, seed, duration and
// observability toggles. Spec files let new scenarios ship as data: the
// CLIs load them with Load, Validate catches mistakes with descriptive
// errors instead of panics, and core.RunE executes them through the scheme
// registry.
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/phy"
	"repro/internal/registry"
	"repro/internal/scheme"
)

// Spec fully describes one simulation run.
type Spec struct {
	// Scheme is a registered channel-access scheme name (case-insensitive;
	// see internal/scheme). Required.
	Scheme string `json:"scheme"`

	// Topology names the network to build. Required.
	Topology Topology `json:"topology"`

	// Links, when non-empty, overrides the link set built from
	// Downlink/Uplink with an explicit list (e.g. the three Fig 1 flows).
	Links []Link `json:"links,omitempty"`

	// Downlink/Uplink select which directions exist when Links is empty.
	// Both default to true.
	Downlink *bool `json:"downlink,omitempty"`
	Uplink   *bool `json:"uplink,omitempty"`

	// Seed is the run's RNG seed (also the default topology seed).
	Seed int64 `json:"seed,omitempty"`

	// Duration is the simulated time ("5s", "300ms", or integer
	// nanoseconds). Zero means the core default (10s).
	Duration Duration `json:"duration,omitempty"`
	// Warmup excludes the initial transient from the statistics.
	Warmup Duration `json:"warmup,omitempty"`

	// Traffic is the offered workload; the zero value is saturated.
	Traffic Traffic `json:"traffic,omitempty"`

	// PacketBytes is the datagram/segment size (0 means the default 512).
	PacketBytes int `json:"packet_bytes,omitempty"`

	// RateMbps is the PHY data rate; 0 means the default 12. Must be one of
	// 6, 9, 12, 18, 24, 36, 48, 54.
	RateMbps float64 `json:"rate_mbps,omitempty"`

	// Phy overrides individual medium parameters; absent fields keep their
	// defaults.
	Phy *Phy `json:"phy,omitempty"`

	// Shards, when set, runs the scenario sharded by interference domain
	// (internal/shard) on this many workers. Must be ≥ 1 when present;
	// omit the field for the single-engine run. The output is byte-identical
	// at any value — the knob only controls parallelism. Incompatible with
	// an explicit Links list.
	Shards *int `json:"shards,omitempty"`

	// SchemeConfig is an optional JSON object unmarshalled over the
	// scheme's default config after the generic knobs are applied. Keys are
	// the Go field names of the scheme's Config struct (case-insensitive),
	// e.g. {"BatchSize": 12} for DOMINO, and each numeric value must lie in
	// the domain its field declares. The rate and packet size are set
	// above (rate_mbps, packet_bytes), not here.
	SchemeConfig json.RawMessage `json:"scheme_config,omitempty"`

	// Obs toggles the observability layer for this run.
	Obs Obs `json:"obs,omitempty"`
}

// Link is a directed AP–client flow in an explicit link set. The AP endpoint
// is implied by the direction: the sender of a downlink, the receiver of an
// uplink.
type Link struct {
	Sender   int  `json:"sender"`
	Receiver int  `json:"receiver"`
	Downlink bool `json:"downlink"`
}

// Traffic selects the offered workload.
type Traffic struct {
	// Kind is "saturated" (default when empty), "udp" or "tcp".
	Kind string `json:"kind,omitempty"`
	// DownMbps/UpMbps are offered loads per link for udp and tcp.
	DownMbps float64 `json:"down_mbps,omitempty"`
	UpMbps   float64 `json:"up_mbps,omitempty"`
}

// Obs toggles the run's observability hooks.
type Obs struct {
	// Metrics collects counters and the airtime breakdown.
	Metrics bool `json:"metrics,omitempty"`
	// TraceFile, when non-empty, asks the CLI to write the NDJSON
	// observability trace there ("-" for stdout).
	TraceFile string `json:"trace_file,omitempty"`
}

// Phy overrides individual phy.Config fields; nil pointers keep defaults.
type Phy struct {
	NoiseDBm          *float64 `json:"noise_dbm,omitempty"`
	CSThreshDBm       *float64 `json:"cs_thresh_dbm,omitempty"`
	DeliverFloorDBm   *float64 `json:"deliver_floor_dbm,omitempty"`
	SigSINRdB         *float64 `json:"sig_sinr_db,omitempty"`
	FalsePositiveRate *float64 `json:"false_positive_rate,omitempty"`
}

// Apply overlays the set fields on cfg.
func (p *Phy) Apply(cfg *phy.Config) {
	if p == nil {
		return
	}
	if p.NoiseDBm != nil {
		cfg.NoiseDBm = *p.NoiseDBm
	}
	if p.CSThreshDBm != nil {
		cfg.CSThreshDBm = *p.CSThreshDBm
	}
	if p.DeliverFloorDBm != nil {
		cfg.DeliverFloorDBm = *p.DeliverFloorDBm
	}
	if p.SigSINRdB != nil {
		cfg.SigSINRdB = *p.SigSINRdB
	}
	if p.FalsePositiveRate != nil {
		cfg.FalsePositiveRate = *p.FalsePositiveRate
	}
}

// DownlinkEnabled reports whether downlinks are built (default true).
func (s Spec) DownlinkEnabled() bool { return s.Downlink == nil || *s.Downlink }

// UplinkEnabled reports whether uplinks are built (default true).
func (s Spec) UplinkEnabled() bool { return s.Uplink == nil || *s.Uplink }

// ShardWorkers returns the sharded-run worker count, 0 when the spec asks
// for the single-engine path.
func (s Spec) ShardWorkers() int {
	if s.Shards == nil {
		return 0
	}
	return *s.Shards
}

// TrafficKind returns the normalized workload name ("saturated", "udp",
// "tcp"); empty input means saturated.
func (s Spec) TrafficKind() string {
	k := strings.ToLower(s.Traffic.Kind)
	if k == "" {
		k = "saturated"
	}
	return k
}

// validRates are the 802.11g PHY rates the medium models.
var validRates = map[float64]bool{6: true, 9: true, 12: true, 18: true, 24: true, 36: true, 48: true, 54: true}

// Validate checks the spec for structural and semantic problems and returns
// a descriptive error for the first one found. A nil return means
// core.RunE can only fail on topology infeasibility (random placements) or
// on a network the scheme cannot serve (more nodes than DOMINO has
// signatures).
func (s Spec) Validate() error {
	d, err := scheme.Registry.Resolve(s.Scheme)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := s.Topology.Validate(); err != nil {
		return err
	}
	for i, l := range s.Links {
		if l.Sender < 0 || l.Receiver < 0 {
			return fmt.Errorf("spec: links[%d]: negative node id", i)
		}
		if l.Sender == l.Receiver {
			return fmt.Errorf("spec: links[%d]: sender and receiver are both node %d", i, l.Sender)
		}
	}
	if len(s.Links) == 0 && !s.DownlinkEnabled() && !s.UplinkEnabled() {
		return fmt.Errorf("spec: no links: downlink and uplink both disabled and no explicit links given")
	}
	if s.Duration < 0 || s.Warmup < 0 {
		return fmt.Errorf("spec: negative duration or warmup")
	}
	if s.Duration > 0 && s.Warmup > s.Duration {
		return fmt.Errorf("spec: warmup %v exceeds duration %v", s.Warmup, s.Duration)
	}
	if s.PacketBytes < 0 {
		return fmt.Errorf("spec: negative packet_bytes %d", s.PacketBytes)
	}
	if s.PacketBytes > math.MaxInt32 {
		return fmt.Errorf("spec: packet_bytes %d exceeds a MAC packet's 32-bit length", s.PacketBytes)
	}
	if s.RateMbps != 0 && !validRates[s.RateMbps] {
		return fmt.Errorf("spec: rate_mbps %v is not an 802.11g rate (6, 9, 12, 18, 24, 36, 48, 54)", s.RateMbps)
	}
	if s.Shards != nil {
		if *s.Shards < 1 {
			return fmt.Errorf("spec: shards must be ≥ 1 (got %d); omit the field for a single-engine run", *s.Shards)
		}
		if len(s.Links) > 0 {
			return fmt.Errorf("spec: shards is incompatible with an explicit links list (sharded runs rebuild links per interference domain from the direction flags)")
		}
	}
	if err := s.validateTraffic(); err != nil {
		return err
	}
	return s.validateSchemeConfig(d)
}

// validateSchemeConfig overlays scheme_config on the scheme's default config
// the way the run does, then lets the scheme check the result (DOMINO builds
// its scheduler and poller from it), so names and knobs that validate are
// the ones the run accepts.
func (s Spec) validateSchemeConfig(d *scheme.Descriptor) error {
	cfg := d.DefaultConfig(scheme.Params{})
	if err := registry.Overlay(cfg, s.SchemeConfig, d.Name+" config", "field"); err != nil {
		return fmt.Errorf("spec: scheme_config: %w", err)
	}
	if d.Check != nil {
		if err := d.Check(cfg); err != nil {
			return fmt.Errorf("spec: scheme_config: %w", err)
		}
	}
	return nil
}

// validateTraffic rejects workloads that would silently run fewer flows
// than the topology suggests — in particular a UDP run whose enabled
// direction offers a rate ≤ 0, which core used to skip without any record.
func (s Spec) validateTraffic() error {
	switch s.TrafficKind() {
	case "saturated":
		return nil
	case "udp":
		if len(s.Links) > 0 {
			for i, l := range s.Links {
				rate := s.Traffic.UpMbps
				if l.Downlink {
					rate = s.Traffic.DownMbps
				}
				if rate <= 0 {
					return fmt.Errorf("spec: udp traffic would silently drop links[%d] (%s rate %v ≤ 0); offer a positive rate or remove the link",
						i, direction(l.Downlink), rate)
				}
			}
			return nil
		}
		if s.DownlinkEnabled() && s.Traffic.DownMbps <= 0 {
			return fmt.Errorf("spec: udp traffic with downlinks enabled but down_mbps %v ≤ 0 would silently drop every downlink; set a positive down_mbps or \"downlink\": false",
				s.Traffic.DownMbps)
		}
		if s.UplinkEnabled() && s.Traffic.UpMbps <= 0 {
			return fmt.Errorf("spec: udp traffic with uplinks enabled but up_mbps %v ≤ 0 would silently drop every uplink; set a positive up_mbps or \"uplink\": false",
				s.Traffic.UpMbps)
		}
		return nil
	case "tcp":
		if s.Traffic.DownMbps <= 0 && s.Traffic.UpMbps <= 0 {
			return fmt.Errorf("spec: tcp traffic needs down_mbps or up_mbps > 0")
		}
		if len(s.Links) == 0 && (!s.DownlinkEnabled() || !s.UplinkEnabled()) {
			return fmt.Errorf("spec: tcp traffic needs both directions (ACKs ride the reverse link); enable downlink and uplink")
		}
		return nil
	default:
		return fmt.Errorf("spec: unknown traffic kind %q (saturated, udp, tcp)", s.Traffic.Kind)
	}
}

func direction(down bool) string {
	if down {
		return "downlink"
	}
	return "uplink"
}

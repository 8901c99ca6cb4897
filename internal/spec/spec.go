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
	"reflect"
	"sort"
	"strings"

	"repro/internal/phy"
	"repro/internal/poll"
	_ "repro/internal/rop" // registers the default ROP poller for validation
	"repro/internal/scheme"
	"repro/internal/strict"
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

	// MisalignSlots arms DOMINO's misalignment probe (Fig 11).
	MisalignSlots int `json:"misalign_slots,omitempty"`

	// Shards, when set, runs the scenario sharded by interference domain
	// (internal/shard) on this many workers. Must be ≥ 1 when present;
	// omit the field for the single-engine run. The output is byte-identical
	// at any value — the knob only controls parallelism. Incompatible with
	// an explicit Links list.
	Shards *int `json:"shards,omitempty"`

	// SchemeConfig is an optional JSON object unmarshalled over the
	// scheme's default config after the generic knobs are applied. Keys are
	// the Go field names of the scheme's Config struct (case-insensitive),
	// e.g. {"BatchSize": 12} for DOMINO.
	SchemeConfig json.RawMessage `json:"scheme_config,omitempty"`

	// Obs toggles the observability layer for this run.
	Obs Obs `json:"obs,omitempty"`

	// Run is an optional JSON object of run-lifecycle knobs (see
	// RunControl): the step granularity of internal/run. Keys are
	// validated against the RunControl catalog the same way scheme_config
	// keys are.
	Run json.RawMessage `json:"run,omitempty"`
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
// a scheme_config mismatch.
func (s Spec) Validate() error {
	if s.Scheme == "" {
		return fmt.Errorf("spec: scheme is required (registered: %s)", strings.Join(scheme.Names(), ", "))
	}
	if _, ok := scheme.Lookup(s.Scheme); !ok {
		return fmt.Errorf("spec: unknown scheme %q (registered: %s)", s.Scheme, strings.Join(scheme.Names(), ", "))
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
	if s.RateMbps != 0 && !validRates[s.RateMbps] {
		return fmt.Errorf("spec: rate_mbps %v is not an 802.11g rate (6, 9, 12, 18, 24, 36, 48, 54)", s.RateMbps)
	}
	if s.MisalignSlots < 0 {
		return fmt.Errorf("spec: negative misalign_slots %d", s.MisalignSlots)
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
	if len(s.SchemeConfig) > 0 {
		var probe map[string]any
		if err := json.Unmarshal(s.SchemeConfig, &probe); err != nil {
			return fmt.Errorf("spec: scheme_config must be a JSON object: %v", err)
		}
		if err := s.validateSchemeKeys(probe); err != nil {
			return err
		}
		if err := s.validateScheduler(probe); err != nil {
			return err
		}
		if err := s.validatePoller(probe); err != nil {
			return err
		}
	}
	if err := s.validateRun(); err != nil {
		return err
	}
	return nil
}

// validateSchemeKeys checks every scheme_config key against the exported
// fields of the scheme's config struct (the catalog the spec layer documents:
// keys are Go field names, matched case-insensitively like encoding/json).
// json.Unmarshal silently drops unknown keys at run time, so a typo would
// otherwise no-op; this makes it a Validate-time error instead.
func (s Spec) validateSchemeKeys(probe map[string]any) error {
	d, ok := scheme.Lookup(s.Scheme)
	if !ok {
		return nil // unknown scheme already reported
	}
	t := reflect.TypeOf(d.DefaultConfig(scheme.Params{}))
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil // opaque config: nothing to check against
	}
	fields := map[string]string{} // lower-cased → canonical spelling
	collectConfigFields(t, fields)
	for k := range probe {
		if _, ok := fields[strings.ToLower(k)]; ok {
			continue
		}
		names := make([]string, 0, len(fields))
		for _, n := range fields {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("spec: scheme_config: %s config has no field %q (fields: %s)",
			d.Name, k, strings.Join(names, ", "))
	}
	return nil
}

// collectConfigFields gathers the JSON-addressable field names of a config
// struct, recursing into embedded structs the way encoding/json flattens
// them. A json tag overrides the field name; "-" hides the field.
func collectConfigFields(t reflect.Type, out map[string]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Anonymous {
			ft := f.Type
			for ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && f.Tag.Get("json") == "" {
				collectConfigFields(ft, out)
				continue
			}
		}
		name := f.Name
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
			if tag == "-" {
				continue
			}
			name = tag
		}
		out[strings.ToLower(name)] = name
	}
}

// validateScheduler checks a DOMINO scheme_config's scheduler name against
// the strict registry up front, so a typo fails at Validate instead of deep
// inside the engine build.
func (s Spec) validateScheduler(probe map[string]any) error {
	d, ok := scheme.Lookup(s.Scheme)
	if !ok || d.Name != "DOMINO" {
		return nil
	}
	for k, v := range probe {
		if !strings.EqualFold(k, "scheduler") {
			continue
		}
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("spec: scheme_config.scheduler must be a string, got %T", v)
		}
		if name == "" {
			continue
		}
		if _, ok := strict.LookupScheduler(name); !ok {
			return fmt.Errorf("spec: unknown scheduler %q (registered: %s)",
				name, strings.Join(strict.SchedulerNames(), ", "))
		}
	}
	return nil
}

// validatePoller checks a DOMINO scheme_config's poller name against the poll
// registry and its PollerConfig keys against that poller's knob struct, so
// typos fail at Validate instead of deep inside the engine build.
func (s Spec) validatePoller(probe map[string]any) error {
	d, ok := scheme.Lookup(s.Scheme)
	if !ok || d.Name != "DOMINO" {
		return nil
	}
	pollerName := ""
	for k, v := range probe {
		if !strings.EqualFold(k, "poller") {
			continue
		}
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("spec: scheme_config.poller must be a string, got %T", v)
		}
		pollerName = name
	}
	var pd *poll.Descriptor
	if pollerName != "" {
		var ok bool
		pd, ok = poll.Lookup(pollerName)
		if !ok {
			return fmt.Errorf("spec: unknown poller %q (registered: %s)",
				pollerName, strings.Join(poll.Names(), ", "))
		}
	} else {
		pd, _ = poll.Lookup("ROP")
	}
	for k, v := range probe {
		if !strings.EqualFold(k, "pollerconfig") {
			continue
		}
		knobs, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("spec: scheme_config.PollerConfig must be a JSON object, got %T", v)
		}
		if pd == nil {
			continue
		}
		if pd.DefaultConfig == nil {
			if len(knobs) > 0 {
				return fmt.Errorf("spec: poller %s has no knobs; drop the PollerConfig object", pd.Name)
			}
			continue
		}
		t := reflect.TypeOf(pd.DefaultConfig())
		for t != nil && t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t == nil || t.Kind() != reflect.Struct {
			continue
		}
		fields := map[string]string{}
		collectConfigFields(t, fields)
		for knob := range knobs {
			if _, ok := fields[strings.ToLower(knob)]; ok {
				continue
			}
			names := make([]string, 0, len(fields))
			for _, n := range fields {
				names = append(names, n)
			}
			sort.Strings(names)
			return fmt.Errorf("spec: scheme_config.PollerConfig: poller %s has no knob %q (knobs: %s)",
				pd.Name, knob, strings.Join(names, ", "))
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

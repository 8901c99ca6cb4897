package spec_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/run"
	"repro/internal/sim"
	"repro/internal/spec"

	// Engine packages register their schemes in init; Validate needs them.
	_ "repro/internal/centaur"
	_ "repro/internal/dcf"
	_ "repro/internal/domino"
	_ "repro/internal/strict"
)

// check validates sp and, when it validates, builds it the way a run does
// (core.BuildScenario, then core.NewInstance or shard.New) without stepping,
// so a spec that passes lint but cannot build fails here too.
func check(sp spec.Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	_, err := run.New(sp, run.Options{})
	return err
}

func boolPtr(b bool) *bool      { return &b }
func intPtr(n int) *int         { return &n }
func f64Ptr(f float64) *float64 { return &f }
func i64Ptr(i int64) *int64     { return &i }

// fullSpec exercises every field of the schema.
func fullSpec() spec.Spec {
	return spec.Spec{
		Scheme:   "domino",
		Topology: spec.Topology{Kind: "random", APs: 5, Clients: 2, Seed: i64Ptr(9), Nodes: 60, AreaM: 500, AssocFloorDBm: f64Ptr(-75)},
		Links: []spec.Link{
			{Sender: 0, Receiver: 1, Downlink: true},
			{Sender: 3, Receiver: 2, Downlink: false},
		},
		Downlink:      boolPtr(true),
		Uplink:        boolPtr(false),
		Seed:          7,
		Duration:      spec.Duration(5 * sim.Second),
		Warmup:        spec.Duration(500 * sim.Millisecond),
		Traffic:       spec.Traffic{Kind: "udp", DownMbps: 10, UpMbps: 4},
		PacketBytes:   1024,
		RateMbps:      24,
		Phy:           &spec.Phy{NoiseDBm: f64Ptr(-90), SigSINRdB: f64Ptr(3)},
		MisalignSlots: 8,
		SchemeConfig:  json.RawMessage(`{"BatchSize":12}`),
		Obs:           spec.Obs{Metrics: true, TraceFile: "trace.ndjson"},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := fullSpec()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := spec.Parse(data)
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip changed the spec:\nbefore %+v\nafter  %+v", orig, back)
	}
}

func TestDurationForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Time
	}{
		{`"5s"`, 5 * sim.Second},
		{`"300ms"`, 300 * sim.Millisecond},
		{`"1.5s"`, 1500 * sim.Millisecond},
		{`250000000`, 250 * sim.Millisecond}, // plain nanoseconds
	} {
		var d spec.Duration
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if d.Time() != tc.want {
			t.Errorf("%s parsed to %v, want %v", tc.in, d.Time(), tc.want)
		}
	}
	var d spec.Duration
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Error("bad duration string accepted")
	}
}

func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := spec.Parse([]byte(`{"scheme": "dcf", "topolgy": {"kind": "fig1"}}`)); err == nil {
		t.Error("typo'd field name accepted")
	}
	if _, err := spec.Parse([]byte(`{"scheme": "dcf"} {"scheme": "domino"}`)); err == nil {
		t.Error("trailing document accepted")
	}
}

// TestValidateCatalog checks each spec's first error, from Validate or, for
// a spec that validates, from building it.
func TestValidateCatalog(t *testing.T) {
	base := func() spec.Spec {
		return spec.Spec{Scheme: "dcf", Topology: spec.Topology{Kind: "fig1"}}
	}
	cases := []struct {
		name    string
		mutate  func(*spec.Spec)
		wantErr string
	}{
		{"valid minimal", func(s *spec.Spec) {}, ""},
		{"missing scheme", func(s *spec.Spec) { s.Scheme = "" }, "scheme is required"},
		{"unknown scheme", func(s *spec.Spec) { s.Scheme = "aloha" }, "unknown scheme"},
		{"alias scheme ok", func(s *spec.Spec) { s.Scheme = "omni" }, ""},
		{"missing topology", func(s *spec.Spec) { s.Topology = spec.Topology{} }, "topology.kind is required"},
		{"unknown topology", func(s *spec.Spec) { s.Topology.Kind = "mesh" }, "unknown topology kind"},
		{"fixed topo with aps", func(s *spec.Spec) { s.Topology.APs = 4 }, "is fixed"},
		{"campus without sizes", func(s *spec.Spec) { s.Topology = spec.Topology{Kind: "campus"} }, "needs aps"},
		{"campus with nodes", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "campus", APs: 4, Clients: 2, Nodes: 50}
		}, "random topology only"},
		{"negative link node", func(s *spec.Spec) { s.Links = []spec.Link{{Sender: -1, Receiver: 2}} }, "negative node id"},
		{"self link", func(s *spec.Spec) { s.Links = []spec.Link{{Sender: 3, Receiver: 3}} }, "sender and receiver"},
		{"no directions no links", func(s *spec.Spec) { s.Downlink, s.Uplink = boolPtr(false), boolPtr(false) }, "no links"},
		{"negative duration", func(s *spec.Spec) { s.Duration = -1 }, "negative duration"},
		{"warmup past duration", func(s *spec.Spec) {
			s.Duration = spec.Duration(sim.Second)
			s.Warmup = spec.Duration(2 * sim.Second)
		}, "exceeds duration"},
		{"negative packet bytes", func(s *spec.Spec) { s.PacketBytes = -4 }, "packet_bytes"},
		{"off-grid rate", func(s *spec.Spec) { s.RateMbps = 13 }, "not an 802.11g rate"},
		{"negative misalign", func(s *spec.Spec) { s.MisalignSlots = -1 }, "misalign_slots"},
		{"unknown traffic", func(s *spec.Spec) { s.Traffic.Kind = "cbr" }, "unknown traffic kind"},
		{"udp zero downlink rate", func(s *spec.Spec) {
			s.Traffic = spec.Traffic{Kind: "udp", UpMbps: 5}
		}, "silently drop every downlink"},
		{"udp zero uplink rate", func(s *spec.Spec) {
			s.Traffic = spec.Traffic{Kind: "udp", DownMbps: 5}
		}, "silently drop every uplink"},
		{"udp zero rate on explicit link", func(s *spec.Spec) {
			s.Links = []spec.Link{{Sender: 0, Receiver: 1, Downlink: true}}
			s.Traffic = spec.Traffic{Kind: "udp", UpMbps: 5}
		}, "silently drop links[0]"},
		{"udp ok with one direction off", func(s *spec.Spec) {
			s.Uplink = boolPtr(false)
			s.Traffic = spec.Traffic{Kind: "udp", DownMbps: 5}
		}, ""},
		{"tcp without rates", func(s *spec.Spec) { s.Traffic = spec.Traffic{Kind: "tcp"} }, "tcp traffic needs"},
		{"tcp single direction", func(s *spec.Spec) {
			s.Uplink = boolPtr(false)
			s.Traffic = spec.Traffic{Kind: "tcp", DownMbps: 5}
		}, "both directions"},
		{"scheme_config not object", func(s *spec.Spec) { s.SchemeConfig = json.RawMessage(`[1,2]`) }, "JSON object"},
		{"domino scheduler ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"scheduler": "lqf"}`)
		}, ""},
		{"domino scheduler alias ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Scheduler": "pf"}`)
		}, ""},
		{"domino unknown scheduler", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"scheduler": "sjf"}`)
		}, "unknown scheduler"},
		{"domino scheduler wrong type", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"scheduler": 3}`)
		}, "must be a string"},
		{"non-domino scheduler key rejected by field catalog", func(s *spec.Spec) {
			// dcf.Config has no Scheduler field, so the key-catalog check
			// fires before the DOMINO-only scheduler-name check would.
			s.SchemeConfig = json.RawMessage(`{"scheduler": "sjf"}`)
		}, `DCF config has no field "scheduler"`},
		{"domino poller ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"poller": "a2p"}`)
		}, ""},
		{"domino poller alias ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "random-access"}`)
		}, ""},
		{"domino unknown poller", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"poller": "csma"}`)
		}, "unknown poller"},
		{"domino poller wrong type", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"poller": 7}`)
		}, "must be a string"},
		{"domino poller knobs ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "A2P", "PollerConfig": {"GroupSize": 12}}`)
		}, ""},
		{"domino poller knob case-insensitive", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"poller": "uora", "pollerconfig": {"raruS": 4}}`)
		}, ""},
		{"domino poller bad knob", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "A2P", "PollerConfig": {"GroupSiz": 12}}`)
		}, `poller A2P has no knob "GroupSiz"`},
		{"domino default-poller bad knob", func(s *spec.Spec) {
			// No poller key: knobs validate against the default ROP, which
			// has none at all.
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"PollerConfig": {"GroupSize": 12}}`)
		}, "poller ROP has no knobs"},
		{"domino poller config wrong type", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "A2P", "PollerConfig": [1]}`)
		}, "PollerConfig must be a JSON object"},
		{"domino default-poller empty knobs ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"PollerConfig": { }}`)
		}, ""},
		{"domino poller knob out of range", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "A2P", "PollerConfig": {"GroupSize": 100}}`)
		}, "poller A2P GroupSize 100 out of range"},
		{"domino poller negative knob", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "UORA", "PollerConfig": {"RARUs": -1}}`)
		}, "poller UORA knobs must be ≥ 0"},
		{"domino bad signature length", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"SignatureChips": 300}`)
		}, "SignatureChips 300 is not a signature length"},
		{"domino more nodes than signatures", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.Topology = spec.Topology{Kind: "grid", Buildings: 1, APs: 1, Clients: 200}
			s.SchemeConfig = json.RawMessage(`{"Poller": "A2P"}`)
		}, "201 nodes exceed the 127-signature capacity"},
		{"domino more nodes with longer signatures ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.Topology = spec.Topology{Kind: "grid", Buildings: 1, APs: 1, Clients: 200}
			s.SchemeConfig = json.RawMessage(`{"Poller": "A2P", "SignatureChips": 511}`)
		}, ""},
		{"domino convert knobs ok", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"VerifyConvert": true, "MaxInbound": 3}`)
		}, ""},
		{"domino knob case-insensitive", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"verifyconvert": true}`)
		}, ""},
		{"domino misspelled knob", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"VerifyConvrt": true}`)
		}, `DOMINO config has no field "VerifyConvrt"`},
		{"domino removed convert cache knob", func(s *spec.Spec) {
			// The conversion cache is gone; old spec files naming its knob
			// fail lint instead of being accepted silently.
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"NoConvertCache": true}`)
		}, `DOMINO config has no field "NoConvertCache"`},
		{"dcf knob ok", func(s *spec.Spec) {
			s.SchemeConfig = json.RawMessage(`{"CWMin": 8}`)
		}, ""},
		{"shards omitted ok", func(s *spec.Spec) { s.Shards = nil }, ""},
		{"shards 1 ok", func(s *spec.Spec) { s.Shards = intPtr(1) }, ""},
		{"shards 8 ok", func(s *spec.Spec) { s.Shards = intPtr(8) }, ""},
		{"shards zero rejected", func(s *spec.Spec) { s.Shards = intPtr(0) }, "shards must be ≥ 1"},
		{"shards negative rejected", func(s *spec.Spec) { s.Shards = intPtr(-2) }, "shards must be ≥ 1"},
		{"shards with explicit links rejected", func(s *spec.Spec) {
			s.Shards = intPtr(2)
			s.Links = []spec.Link{{Sender: 0, Receiver: 1, Downlink: true}}
		}, "incompatible with an explicit links list"},
		{"grid topology ok", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "grid", Buildings: 4, APs: 2, Clients: 2}
		}, ""},
		{"grid default buildings ok", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "grid", APs: 2, Clients: 2}
		}, ""},
		{"grid without sizes", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "grid"}
		}, "needs aps"},
		{"grid with nodes", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "grid", APs: 2, Clients: 2, Nodes: 10}
		}, "do not apply to the grid topology"},
		{"campus with buildings", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "campus", APs: 2, Clients: 2, Buildings: 3}
		}, "grid topology only"},
		{"run control ok", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"step_events": 4096}`)
		}, ""},
		{"run control case-insensitive ok", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"Step_Events": 4096}`)
		}, ""},
		{"run not object", func(s *spec.Spec) { s.Run = json.RawMessage(`7`) }, "run must be a JSON object"},
		{"run misspelled knob", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"step_evnts": 4096}`)
		}, `run has no knob "step_evnts" (knobs: step_events, step_window)`},
		{"run removed checkpoint_every knob", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"checkpoint_every": "30s"}`)
		}, `run has no knob "checkpoint_every" (knobs: step_events, step_window)`},
		{"run removed max_concurrent_runs knob", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"max_concurrent_runs": 2}`)
		}, `run has no knob "max_concurrent_runs" (knobs: step_events, step_window)`},
		{"run negative step events", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"step_events": -1}`)
		}, "step_events"},
		{"run step window needs shards", func(s *spec.Spec) {
			s.Run = json.RawMessage(`{"step_window": "1ms"}`)
		}, "only applies to sharded runs"},
		{"run step window with shards ok", func(s *spec.Spec) {
			s.Shards = intPtr(2)
			s.Run = json.RawMessage(`{"step_window": "1ms"}`)
		}, ""},
		{"run step events with shards rejected", func(s *spec.Spec) {
			s.Shards = intPtr(2)
			s.Run = json.RawMessage(`{"step_events": 512}`)
		}, "only applies to single-engine runs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			err := check(s)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestExampleSpecsValidate lints every shipped example the same way `make
// specs` does and builds it without stepping, so a broken example fails go
// test too.
func TestExampleSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found under examples/specs")
	}
	for _, p := range paths {
		sp, err := spec.Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if err := check(sp); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

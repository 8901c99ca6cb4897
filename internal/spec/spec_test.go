package spec_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
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
	sc, err := core.BuildScenario(sp)
	if err != nil {
		return err
	}
	if w := sp.ShardWorkers(); w > 0 {
		_, err = shard.New(sc, shard.Options{Workers: w})
	} else {
		_, err = core.NewInstance(sc)
	}
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
		Downlink:     boolPtr(true),
		Uplink:       boolPtr(false),
		Seed:         7,
		Duration:     spec.Duration(5 * sim.Second),
		Warmup:       spec.Duration(500 * sim.Millisecond),
		Traffic:      spec.Traffic{Kind: "udp", DownMbps: 10, UpMbps: 4},
		PacketBytes:  1024,
		RateMbps:     24,
		Phy:          &spec.Phy{NoiseDBm: f64Ptr(-90), SigSINRdB: f64Ptr(3)},
		SchemeConfig: json.RawMessage(`{"BatchSize":12}`),
		Obs:          spec.Obs{Metrics: true, TraceFile: "trace.ndjson"},
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

// TestParseRejectsRunObject: specs have no "run" object, so an old spec
// carrying one fails with the usual unknown-field error instead of being
// accepted and ignored.
func TestParseRejectsRunObject(t *testing.T) {
	_, err := spec.Parse([]byte(`{"scheme": "dcf", "topology": {"kind": "fig1"}, "run": {"step_events": 5}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "run"`) {
		t.Fatalf("spec with a run object: err = %v, want an unknown-field error", err)
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
		{"packet bytes beyond 32 bits", func(s *spec.Spec) { s.PacketBytes = 1 << 31 }, "packet_bytes"},
		{"off-grid rate", func(s *spec.Spec) { s.RateMbps = 13 }, "not an 802.11g rate"},
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
		}, "poller UORA RARUs -1 out of range 1..24"},
		{"domino uora contention window overflow", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "UORA", "PollerConfig": {"OCWMin": 9223372036854775807, "OCWMax": 9223372036854775807}}`)
		}, "poller UORA OCWMin 9223372036854775807 out of range 0..127"},
		{"domino uora more RA-RUs than subchannels", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"Poller": "UORA", "PollerConfig": {"RARUs": 25}}`)
		}, "poller UORA RARUs 25 out of range 1..24"},
		{"domino bad signature length", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"SignatureChips": 300}`)
		}, "DOMINO config SignatureChips 300 is not one of 127|255|511"},
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
			s.SchemeConfig = json.RawMessage(`{"NoFakeCover": true, "MaxInbound": 3}`)
		}, ""},
		{"domino knob case-insensitive", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"nofakecover": true}`)
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
		// Each row below passed lint and then panicked or mis-ran on fig7
		// before the knobs declared their domains.
		{"dcf negative contention window", func(s *spec.Spec) {
			s.Topology = spec.Topology{Kind: "fig7"}
			s.SchemeConfig = json.RawMessage(`{"CWMin": -1}`)
		}, "DCF config CWMin -1 out of range 0..1023"},
		{"centaur negative contention window", func(s *spec.Spec) {
			s.Scheme, s.Topology = "centaur", spec.Topology{Kind: "fig7"}
			s.SchemeConfig = json.RawMessage(`{"CWMin": -1}`)
		}, "CENTAUR config CWMin -1 out of range 0..1023"},
		{"centaur negative fixed backoff", func(s *spec.Spec) {
			s.Scheme, s.Topology = "centaur", spec.Topology{Kind: "fig7"}
			s.SchemeConfig = json.RawMessage(`{"FixedBackoffSlots": -100}`)
		}, "CENTAUR config FixedBackoffSlots -100 out of range 0..1023"},
		{"domino empty batch", func(s *spec.Spec) {
			s.Scheme, s.Topology = "domino", spec.Topology{Kind: "fig7"}
			s.SchemeConfig = json.RawMessage(`{"BatchSize": 0}`)
		}, "DOMINO config BatchSize 0 out of range 1..256"},
		{"domino unbounded inbound triggers", func(s *spec.Spec) {
			s.Scheme, s.Topology = "domino", spec.Topology{Kind: "fig7"}
			s.SchemeConfig = json.RawMessage(`{"MaxInbound": 100000}`)
		}, "DOMINO config MaxInbound 100000 out of range 1..4"},
		// The rate and packet size come from the spec's rate_mbps and
		// packet_bytes, never from a second copy in scheme_config; the
		// misalignment probe's window is fixed, so no knob sizes it.
		{"dcf rate copy rejected", func(s *spec.Spec) {
			s.SchemeConfig = json.RawMessage(`{"Rate": 7}`)
		}, `DCF config has no field "Rate"`},
		{"domino virtual bytes copy rejected", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"VirtualBytes": 1024}`)
		}, `DOMINO config has no field "VirtualBytes"`},
		{"domino misalign copy rejected", func(s *spec.Spec) {
			s.Scheme = "domino"
			s.SchemeConfig = json.RawMessage(`{"MisalignSlots": 8}`)
		}, `DOMINO config has no field "MisalignSlots"`},
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

// TestExampleSpecsRun runs every shipped example for 100 ms after 10 ms of
// warmup, the way domino-sim -spec runs it, so an example that lints and
// builds but fails or panics at run time fails go test too.
func TestExampleSpecsRun(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found under examples/specs (%v)", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			sp, err := spec.Load(p)
			if err != nil {
				t.Fatal(err)
			}
			sp.Duration = spec.Duration(100 * sim.Millisecond)
			sp.Warmup = spec.Duration(10 * sim.Millisecond)
			if w := sp.ShardWorkers(); w > 0 {
				var sc core.Scenario
				if sc, err = core.BuildScenario(sp); err == nil {
					_, _, err = shard.Run(sc, shard.Options{Workers: w})
				}
			} else {
				_, err = core.RunE(sp)
			}
			if err != nil {
				t.Fatal(err)
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

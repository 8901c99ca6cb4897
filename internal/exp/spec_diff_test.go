package exp

// Differential safety net for the registry/spec refactor. The golden SHA-256
// hashes below pin the trace byte format at exactly these configurations;
// both a Scenario literal naming a Scheme constant AND the declarative spec
// path via core.BuildScenario must reproduce them byte for byte and the
// throughputs digit for digit. The aggregate throughputs are the original
// pre-refactor values — they must never drift. The trace hashes were
// re-captured when causal spans and packet-lifecycle records were added to
// the format (records gained sp/pa fields and pkt_enqueue/pkt_deliver
// kinds); the runs themselves are schedule-identical to the pre-refactor
// pipeline, which the unchanged throughputs prove.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spec"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// singleRunGoldens: one 300 ms run per row, downlink + uplink,
// NDJSON-traced. The first four rows (saturated Fig 7 at 12 Mbps, one per
// scheme) come from the pre-refactor code. The rows after them pin paths
// those four miss: a data rate other than 12 Mbps, where CENTAUR's ACKs
// (sent at the data rate) and DCF's (always 12 Mbps) differ; CENTAUR's
// retry-limit drops on the hidden pair; and CENTAUR under UDP. They were
// captured while CENTAUR still carried its own contention station.
type singleRunGolden struct {
	name      string
	scheme    string
	enum      core.Scheme
	seed      int64
	topo      string       // spec topology kind
	rateMbps  float64      // 0 is the default 12
	traffic   spec.Traffic // the zero value is saturated
	wantDrops bool         // the run must reach the retry-limit drop path
	traceSHA  string
	aggregate string // %.6f Mbps
}

var singleRunGoldens = []singleRunGolden{
	{"DCF", "DCF", core.DCF, 7, "fig7", 0, spec.Traffic{}, false, "363ee1458fb893fd12e8688de3792db5c8ed5d876ed94849aac55d21c48c9280", "16.616107"},
	{"CENTAUR", "CENTAUR", core.CENTAUR, 3, "fig7", 0, spec.Traffic{}, false, "e9c76dcb15350db4e0be36b77102837718a65b1268158d95641feef1a368704e", "12.806827"},
	{"DOMINO", "DOMINO", core.DOMINO, 5, "fig7", 0, spec.Traffic{}, false, "a86eb06335f681d8e26ccaa167dc5a89c5accf6e77e3c290e4a59b53911fcd38", "18.814293"},
	{"Omniscient", "Omniscient", core.Omniscient, 9, "fig7", 0, spec.Traffic{}, false, "36a9acac06713075e4ee8687ac84b6e83ad2f5ad5a184c31ef7ab72727104a02", "19.715413"},
	{"DCF-24Mbps", "DCF", core.DCF, 7, "fig7", 24, spec.Traffic{}, false, "ae1a37becd8608e767bd3a651e148190fa5a17863c1dcc2fdcca758ec1f9e4b1", "26.883413"},
	{"CENTAUR-24Mbps", "CENTAUR", core.CENTAUR, 3, "fig7", 24, spec.Traffic{}, false, "df202a472c986c05d1ec621eeee29949fa127634f1b8aae51511d56f588c8976", "20.316160"},
	{"CENTAUR-ht", "CENTAUR", core.CENTAUR, 3, "ht", 0, spec.Traffic{}, true, "44ffef500ab2f8cc51ff63818576b046328d479b5e4cb2d905372b733d16ec28", "1.583787"},
	{"CENTAUR-udp", "CENTAUR", core.CENTAUR, 3, "fig7", 0, spec.Traffic{Kind: "udp", DownMbps: 3, UpMbps: 1.5}, false, "71b2bfe0f44c99ffdaccceebeb85f3302a700733fe8c1681c3cc1726fd29e176", "8.492373"},
}

// runRow runs one row either through a programmatic Scenario naming a
// Scheme constant (legacy, the entry point the pre-refactor goldens were
// captured through) or through the equivalent declarative spec via
// BuildScenario + RunScenario (the core.RunE path, with the tracer attached
// the way the CLI does). It returns the trace hash, the aggregate and the
// engine's retry-limit drop count.
func runRow(t *testing.T, g singleRunGolden, legacy bool) (string, string, int) {
	t.Helper()
	var sc core.Scenario
	if legacy {
		net, err := spec.Topology{Kind: g.topo}.Build(g.seed)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]core.TrafficKind{"": core.Saturated, "udp": core.UDPCBR, "tcp": core.TCP}
		sc = core.Scenario{
			Net:      net,
			Downlink: true,
			Uplink:   true,
			Scheme:   g.enum,
			Seed:     g.seed,
			Duration: 300 * sim.Millisecond,
			Traffic:  kinds[g.traffic.Kind],
			DownMbps: g.traffic.DownMbps,
			UpMbps:   g.traffic.UpMbps,
			Rate:     phy.Rate(g.rateMbps),
		}
	} else {
		var err error
		sc, err = core.BuildScenario(spec.Spec{
			Scheme:   g.scheme,
			Topology: spec.Topology{Kind: g.topo},
			Seed:     g.seed,
			Duration: spec.Duration(300 * sim.Millisecond),
			Traffic:  g.traffic,
			RateMbps: g.rateMbps,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	nd := obs.NewNDJSON(&buf)
	sc.Tracer = nd
	res, err := core.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Flush(); err != nil {
		t.Fatal(err)
	}
	drops := 0
	switch {
	case res.Dcf != nil:
		drops = res.Dcf.Drops
	case res.Centaur != nil:
		drops = res.Centaur.Drops
	}
	return sha(buf.Bytes()), fmt.Sprintf("%.6f", res.AggregateMbps), drops
}

func TestSchemesMatchPreRefactorGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("eight traced 300 ms runs per path")
	}
	for _, g := range singleRunGoldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, legacy := range []bool{true, false} {
				leg := map[bool]string{true: "legacy", false: "spec"}[legacy]
				gotSHA, gotAgg, drops := runRow(t, g, legacy)
				if gotSHA != g.traceSHA {
					t.Errorf("%s path trace hash %s != golden %s", leg, gotSHA, g.traceSHA)
				}
				if gotAgg != g.aggregate {
					t.Errorf("%s path aggregate %s Mbps != golden %s", leg, gotAgg, g.aggregate)
				}
				if g.wantDrops && drops == 0 {
					t.Errorf("%s path made no retry-limit drops; the row no longer reaches that path", leg)
				}
			}
		})
	}
}

// pollPathGoldens pin the DOMINO backlog-report paths the DOMINO row above
// does not reach: the A2P and UORA pollers and the piggyback relay on Fig 7
// (seed 5, 300 ms, downlink + uplink, spec path), and, since Fig 7 gives
// each AP one client, a 2-AP × 20-client grid where A2P polls in several
// rounds and UORA's random access collides and fails reports. Captured
// before the pollers appended reports into the caller's buffer.
var pollPathGoldens = []struct {
	name, config string
	topology     spec.Topology
	traceSHA     string
	aggregate    string // %.6f Mbps
}{
	{"fig7-A2P", `{"Poller": "A2P"}`, spec.Topology{Kind: "fig7"}, "a86eb06335f681d8e26ccaa167dc5a89c5accf6e77e3c290e4a59b53911fcd38", "18.814293"},
	{"fig7-UORA", `{"Poller": "UORA"}`, spec.Topology{Kind: "fig7"}, "44b735276f163b3e96371b8f53f6ade509b691b84ed65582d63a20dde6ff7583", "17.967787"},
	{"fig7-Piggyback", `{"Piggyback": true}`, spec.Topology{Kind: "fig7"}, "1ab49df1246c5800339784eec08e43bb5e7eb6b07214f4c4e283276e662331fa", "19.114667"},
	{"grid-A2P-groups-of-8", `{"Poller": "A2P", "PollerConfig": {"GroupSize": 8}}`, spec.Topology{Kind: "grid", Buildings: 1, APs: 2, Clients: 20},
		"f72f18c93b3e236e5a55615a09d7887030b380b4d1581121d93df061f25bad8c", "17.039360"},
	{"grid-UORA", `{"Poller": "UORA"}`, spec.Topology{Kind: "grid", Buildings: 1, APs: 2, Clients: 20},
		"b0c088e6f25496bbe718dc0c462bbec0bf978c36810383afe26597399040db8a", "16.725333"},
}

func TestPollPathsMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("five traced 300 ms runs")
	}
	for _, g := range pollPathGoldens {
		t.Run(g.name, func(t *testing.T) {
			sc, err := core.BuildScenario(spec.Spec{
				Scheme:       "DOMINO",
				SchemeConfig: json.RawMessage(g.config),
				Topology:     g.topology,
				Seed:         5,
				Duration:     spec.Duration(300 * sim.Millisecond),
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			nd := obs.NewNDJSON(&buf)
			sc.Tracer = nd
			res, err := core.RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := nd.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := sha(buf.Bytes()); got != g.traceSHA {
				t.Errorf("trace hash %s != golden %s", got, g.traceSHA)
			}
			if got := fmt.Sprintf("%.6f", res.AggregateMbps); got != g.aggregate {
				t.Errorf("aggregate %s Mbps != golden %s", got, g.aggregate)
			}
		})
	}
}

// TestFig14MatchesPreRefactorGolden pins the experiment-harness output: the
// merged multi-run NDJSON trace and the gain-CDF CSV of the small Fig 14
// configuration, byte-identical to the pre-refactor pipeline.
func TestFig14MatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run traced Fig 14")
	}
	const (
		goldenTraceSHA = "b023fc31fb52f70519c90db5b9872f37e191c3f29a1c6c9d409056ddaba4f9c8"
		goldenCSVSHA   = "24b473bfabef37b040796678a1621ec2593e47c4942780c40424f3703bf3de72"
	)
	var trace bytes.Buffer
	o := fig14TraceOpts(1)
	o.TraceSink = &trace
	r := must(Fig14(o))
	if got := sha(trace.Bytes()); got != goldenTraceSHA {
		t.Errorf("Fig 14 trace hash %s != pre-refactor golden %s (%d bytes)",
			got, goldenTraceSHA, trace.Len())
	}
	var csv bytes.Buffer
	if err := r.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := sha(csv.Bytes()); got != goldenCSVSHA {
		t.Errorf("Fig 14 CSV hash %s != pre-refactor golden %s:\n%s",
			got, goldenCSVSHA, csv.String())
	}
}

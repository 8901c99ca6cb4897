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
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// singleRunGoldens: one saturated 300 ms run per scheme on the Fig 7 network
// (downlink + uplink), NDJSON-traced. Hashes and aggregate throughputs come
// from the pre-refactor code.
var singleRunGoldens = []struct {
	scheme    string
	enum      core.Scheme
	seed      int64
	traceSHA  string
	aggregate string // %.6f Mbps
}{
	{"DCF", core.DCF, 7, "363ee1458fb893fd12e8688de3792db5c8ed5d876ed94849aac55d21c48c9280", "16.616107"},
	{"CENTAUR", core.CENTAUR, 3, "e9c76dcb15350db4e0be36b77102837718a65b1268158d95641feef1a368704e", "12.806827"},
	{"DOMINO", core.DOMINO, 5, "a86eb06335f681d8e26ccaa167dc5a89c5accf6e77e3c290e4a59b53911fcd38", "18.814293"},
	{"Omniscient", core.Omniscient, 9, "36a9acac06713075e4ee8687ac84b6e83ad2f5ad5a184c31ef7ab72727104a02", "19.715413"},
}

// runLegacy runs through the programmatic Scenario with a Scheme constant —
// the same entry point the pre-refactor goldens were captured through.
func runLegacy(t *testing.T, enum core.Scheme, seed int64) (string, string) {
	t.Helper()
	var buf bytes.Buffer
	nd := obs.NewNDJSON(&buf)
	res, err := core.RunScenario(core.Scenario{
		Net:      topo.Figure7(),
		Downlink: true,
		Uplink:   true,
		Scheme:   enum,
		Seed:     seed,
		Duration: 300 * sim.Millisecond,
		Traffic:  core.Saturated,
		Tracer:   nd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Flush(); err != nil {
		t.Fatal(err)
	}
	return sha(buf.Bytes()), fmt.Sprintf("%.6f", res.AggregateMbps)
}

// runSpec runs the equivalent declarative spec through BuildScenario +
// RunScenario (the core.RunE path, with the tracer attached the way the CLI
// does).
func runSpec(t *testing.T, schemeName string, seed int64) (string, string) {
	t.Helper()
	sc, err := core.BuildScenario(spec.Spec{
		Scheme:   schemeName,
		Topology: spec.Topology{Kind: "fig7"},
		Seed:     seed,
		Duration: spec.Duration(300 * sim.Millisecond),
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
	return sha(buf.Bytes()), fmt.Sprintf("%.6f", res.AggregateMbps)
}

func TestSchemesMatchPreRefactorGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("four traced 300 ms runs per path")
	}
	for _, g := range singleRunGoldens {
		g := g
		t.Run(g.scheme, func(t *testing.T) {
			legacySHA, legacyAgg := runLegacy(t, g.enum, g.seed)
			if legacySHA != g.traceSHA {
				t.Errorf("legacy path trace hash %s != pre-refactor golden %s", legacySHA, g.traceSHA)
			}
			if legacyAgg != g.aggregate {
				t.Errorf("legacy path aggregate %s Mbps != golden %s", legacyAgg, g.aggregate)
			}
			specSHA, specAgg := runSpec(t, g.scheme, g.seed)
			if specSHA != g.traceSHA {
				t.Errorf("spec path trace hash %s != pre-refactor golden %s", specSHA, g.traceSHA)
			}
			if specAgg != g.aggregate {
				t.Errorf("spec path aggregate %s Mbps != golden %s", specAgg, g.aggregate)
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

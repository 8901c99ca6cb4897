package exp

// Differential safety net for the poller-registry refactor: selecting the
// default ROP poller *explicitly* — by name through domino.Config.Poller on
// the legacy path and through scheme_config.Poller on the spec path — must
// reproduce the pre-refactor DOMINO golden byte for byte. This pins that the
// poll.Poller seam is a pure refactor of the old hard-wired rop calls.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
)

// TestA2PScalesPastROPCeiling is the ISSUE acceptance run: a 200-client
// single-AP spec — far past ROP's 24-subchannel ceiling — completes end to
// end under the A2P grouped poller with every client polled (none truncated)
// and backlog reports decoding.
func TestA2PScalesPastROPCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("200-client run")
	}
	sc, err := core.BuildScenario(spec.Spec{
		Scheme:       "DOMINO",
		SchemeConfig: json.RawMessage(`{"Poller": "A2P", "SignatureChips": 511}`),
		Topology:     spec.Topology{Kind: "grid", Buildings: 1, APs: 1, Clients: 200},
		Seed:         2,
		Duration:     spec.Duration(100 * sim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Domino
	if e == nil {
		t.Fatal("no DOMINO engine in result")
	}
	if n := len(res.UnpolledClients); n != 0 {
		t.Errorf("%d clients unpolled under A2P (unbounded poller must take all)", n)
	}
	if e.PollDecoded == 0 {
		t.Error("no backlog reports decoded in 100 ms")
	}
	// ceil(200/24) = 9 rounds per cycle; the engine must have scheduled
	// multi-round cycles, not single-symbol ROP slots.
	if e.Polls > 0 && e.PollRounds < 9*e.Polls {
		t.Errorf("PollRounds %d < 9 per poll cycle (%d cycles)", e.PollRounds, e.Polls)
	}
	if res.AggregateMbps <= 0 {
		t.Errorf("aggregate throughput %v Mbps, want > 0", res.AggregateMbps)
	}
}

func TestExplicitROPPollerMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced 300 ms runs")
	}
	var golden *singleRunGolden
	for i := range singleRunGoldens {
		if singleRunGoldens[i].name == "DOMINO" {
			golden = &singleRunGoldens[i]
		}
	}
	if golden == nil {
		t.Fatal("no DOMINO entry in singleRunGoldens")
	}

	t.Run("legacy", func(t *testing.T) {
		var buf bytes.Buffer
		nd := obs.NewNDJSON(&buf)
		res, err := core.RunScenario(core.Scenario{
			Net:        topo.Figure7(),
			Downlink:   true,
			Uplink:     true,
			Scheme:     core.DOMINO,
			Seed:       golden.seed,
			Duration:   300 * sim.Millisecond,
			Traffic:    core.Saturated,
			Tracer:     nd,
			TuneDomino: func(c *domino.Config) { c.Poller = "ROP" },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := sha(buf.Bytes()); got != golden.traceSHA {
			t.Errorf("explicit ROP trace hash %s != golden %s", got, golden.traceSHA)
		}
		if got := fmt.Sprintf("%.6f", res.AggregateMbps); got != golden.aggregate {
			t.Errorf("explicit ROP aggregate %s Mbps != golden %s", got, golden.aggregate)
		}
	})

	t.Run("spec", func(t *testing.T) {
		sc, err := core.BuildScenario(spec.Spec{
			Scheme:       "DOMINO",
			SchemeConfig: json.RawMessage(`{"Poller": "ROP"}`),
			Topology:     spec.Topology{Kind: "fig7"},
			Seed:         golden.seed,
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
		if got := sha(buf.Bytes()); got != golden.traceSHA {
			t.Errorf("spec ROP trace hash %s != golden %s", got, golden.traceSHA)
		}
		if got := fmt.Sprintf("%.6f", res.AggregateMbps); got != golden.aggregate {
			t.Errorf("spec ROP aggregate %s Mbps != golden %s", got, golden.aggregate)
		}
	})
}

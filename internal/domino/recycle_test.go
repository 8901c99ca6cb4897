package domino_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/obs"
	"repro/internal/spec"
)

// TestRecycledStorageMatchesScribbled runs traced Fig 7 DOMINO runs with
// metrics (UDP, TCP, saturated with one-slot batches whose dispatches
// overtake each other on the wire, and saturated with the UORA poller and
// with piggybacked backlog reports) twice: once plainly, and once with
// every piece of storage the engine recycles overwritten the moment it is
// released (domino.ScribbleRecycled: frame payloads once the receiver's
// callback returns, armed transmissions, deferred-call records and the
// backlog reports they carry, ACK entries and the slots the log drops).
// The trace bytes, the metrics and the result must be equal, so nothing
// reads recycled storage after its release.
func TestRecycledStorageMatchesScribbled(t *testing.T) {
	for _, tc := range []struct{ name, json string }{
		{"udp", `"traffic": {"kind": "udp", "down_mbps": 2, "up_mbps": 1}`},
		{"tcp", `"traffic": {"kind": "tcp", "down_mbps": 10, "up_mbps": 4}`},
		{"overtaking", `"traffic": {"kind": "saturated"},
			"scheme_config": {"BatchSize": 1, "WiredLatencyMean": 5000000, "WiredLatencyStd": 5000000}`},
		{"uora", `"traffic": {"kind": "saturated"}, "scheme_config": {"Poller": "UORA"}`},
		{"piggyback", `"traffic": {"kind": "saturated"}, "scheme_config": {"Piggyback": true}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := spec.Parse([]byte(`{"scheme": "domino", "topology": {"kind": "fig7"}, "seed": 3,
				"duration": "1s", "warmup": "100ms", "obs": {"metrics": true}, ` + tc.json + `}`))
			if err != nil {
				t.Fatal(err)
			}
			run := func(scribble bool) ([]byte, core.Result) {
				*domino.ScribbleRecycled = scribble
				defer func() { *domino.ScribbleRecycled = false }()
				sc, err := core.BuildScenario(sp)
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
				return buf.Bytes(), res
			}
			plainTrace, plain := run(false)
			gotTrace, got := run(true)
			if len(plainTrace) == 0 || plain.AggregateMbps <= 0 {
				t.Fatalf("weak run: %d trace bytes, %.2f Mbps", len(plainTrace), plain.AggregateMbps)
			}
			if !bytes.Equal(gotTrace, plainTrace) {
				t.Fatalf("scribbled run's trace differs (%d vs %d bytes)", len(gotTrace), len(plainTrace))
			}
			if len(plain.Snapshot) == 0 || !reflect.DeepEqual(got.Snapshot, plain.Snapshot) {
				t.Fatalf("scribbled run's metrics differ (%d vs %d metrics)", len(got.Snapshot), len(plain.Snapshot))
			}
			if got.AggregateMbps != plain.AggregateMbps || got.DataMbps != plain.DataMbps ||
				got.MeanDelay != plain.MeanDelay || got.MeanDelayPerLink != plain.MeanDelayPerLink ||
				got.Fairness != plain.Fairness || !reflect.DeepEqual(got.PerLinkMbps, plain.PerLinkMbps) ||
				!reflect.DeepEqual(got.Breakdown, plain.Breakdown) {
				t.Fatalf("scribbled run's result differs: %+v vs %+v", got, plain)
			}
			d, p := got.Domino, plain.Domino
			if d.DataSends != p.DataSends || d.FakeSends != p.FakeSends || d.AckMisses != p.AckMisses ||
				d.TriggerMisses != p.TriggerMisses || d.TriggerLate != p.TriggerLate || d.SelfStarts != p.SelfStarts ||
				d.Slots() != p.Slots() {
				t.Fatalf("scribbled run's engine counters differ")
			}
			t.Logf("%d trace bytes, %.2f Mbps, %d slots", len(plainTrace), plain.AggregateMbps, p.Slots())
		})
	}
}

// TestDeferredArmHoldsLogFloor runs a random T(20,3) placement with 10/10
// Mbps UDP to completion. In it an AP's poll of its own slot defers the arm
// of its next send (checkPollSelf), the AP's schedule pointer moves on
// while the call waits, and a slide would drop the send's slot, so the
// send read below the log window and panicked, unless the deferred arm
// holds its slot in the AP's floor.
func TestDeferredArmHoldsLogFloor(t *testing.T) {
	sp, err := spec.Parse([]byte(`{"scheme": "domino", "topology": {"kind": "random", "aps": 20, "clients": 3},
		"seed": 107, "duration": "2s", "warmup": "300ms", "traffic": {"kind": "udp", "down_mbps": 10, "up_mbps": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.BuildScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateMbps <= 0 {
		t.Errorf("aggregate throughput %v Mbps, want > 0", res.AggregateMbps)
	}
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestRunObservedDomino drives a saturated DOMINO run with the full
// observability stack attached and checks the acceptance contract: the trace
// carries the slot timeline (slot_start records), signature triggers and ROP
// poll records, and the airtime breakdown partitions the run duration
// exactly.
func TestRunObservedDomino(t *testing.T) {
	var buf obs.Buffer
	m := obs.NewMetrics()
	dur := sim.Second
	res := mustRun(t, Scenario{
		Net:      topo.Figure7(),
		Downlink: true,
		Uplink:   true,
		Scheme:   DOMINO,
		Seed:     11,
		Duration: dur,
		Traffic:  Saturated,
		Tracer:   &buf,
		Metrics:  m,
	})
	if res.AggregateMbps <= 0 {
		t.Fatalf("no throughput: %.2f Mbps", res.AggregateMbps)
	}

	recs := buf.Records()
	if len(recs) < 3 {
		t.Fatalf("only %d records", len(recs))
	}
	if recs[0].Kind != obs.KindRunStart || recs[0].Aux != "DOMINO" || recs[0].Value != 11 {
		t.Fatalf("first record = %+v, want run_start DOMINO seed 11", recs[0])
	}
	last := recs[len(recs)-1]
	if last.Kind != obs.KindRunEnd || last.At != dur {
		t.Fatalf("last record = %+v, want run_end at %v", last, dur)
	}
	counts := map[obs.Kind]int{}
	for _, r := range recs {
		counts[r.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KindSlotStart, obs.KindSlotEnd, obs.KindTrigger, obs.KindROPPoll,
		obs.KindTxStart, obs.KindTxEnd, obs.KindKernel, obs.KindQueue,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v records in a saturated DOMINO run", k)
		}
	}

	if res.Breakdown == nil {
		t.Fatal("no airtime breakdown")
	}
	if res.Breakdown.Total != dur {
		t.Fatalf("breakdown total = %v, want %v", res.Breakdown.Total, dur)
	}
	var sum sim.Time
	for b := obs.BucketIdle; b < obs.NumBuckets; b++ {
		sum += res.Breakdown.Of(b)
	}
	if sum != dur {
		t.Fatalf("airtime buckets sum to %v, want the run duration %v", sum, dur)
	}
	if res.Breakdown.Of(obs.BucketData) == 0 {
		t.Error("saturated run recorded zero data airtime")
	}

	if len(res.Snapshot) == 0 {
		t.Fatal("no metrics snapshot")
	}
	if v, ok := res.Snapshot.Get("mac.delivered"); !ok || v.Value <= 0 {
		t.Errorf("mac.delivered = %+v", v)
	}
	if v, ok := res.Snapshot.Get("phy.tx.data"); !ok || v.Value <= 0 {
		t.Errorf("phy.tx.data = %+v", v)
	}
}

// TestRunObservedDCF checks the DCF path: backoff records and queue samples
// flow, and the breakdown still partitions the duration.
func TestRunObservedDCF(t *testing.T) {
	var buf obs.Buffer
	dur := 500 * sim.Millisecond
	res := mustRun(t, Scenario{
		Net:      topo.TwoPairs(topo.ExposedTerminals),
		Downlink: true,
		Scheme:   DCF,
		Seed:     12,
		Duration: dur,
		Traffic:  Saturated,
		Tracer:   &buf,
	})
	counts := map[obs.Kind]int{}
	for _, r := range buf.Records() {
		counts[r.Kind]++
	}
	if counts[obs.KindBackoff] == 0 {
		t.Error("no backoff records in a DCF run")
	}
	if counts[obs.KindQueue] == 0 {
		t.Error("no queue-depth samples in a saturated DCF run")
	}
	if res.Breakdown == nil || res.Breakdown.Total != dur {
		t.Fatalf("breakdown = %+v, want total %v", res.Breakdown, dur)
	}
}

// TestRunUnobservedHasNoBreakdown pins that the default scenario installs no
// hooks and reports no observability artifacts.
func TestRunUnobservedHasNoBreakdown(t *testing.T) {
	res := mustRun(t, Scenario{
		Net:      topo.TwoPairs(topo.ExposedTerminals),
		Downlink: true,
		Scheme:   DOMINO,
		Seed:     13,
		Duration: 200 * sim.Millisecond,
		Traffic:  Saturated,
	})
	if res.Breakdown != nil || res.Snapshot != nil {
		t.Fatalf("unobserved run produced breakdown=%v snapshot=%v",
			res.Breakdown, res.Snapshot)
	}
}

// TestMetricsRecordDeliveryDelay checks that a metrics-on DOMINO run
// records per-packet delivery delay in mac.delay_us.
func TestMetricsRecordDeliveryDelay(t *testing.T) {
	m := obs.NewMetrics()
	mustRun(t, Scenario{
		Net:      topo.Figure7(),
		Downlink: true,
		Uplink:   true,
		Scheme:   DOMINO,
		Seed:     3,
		Duration: 300 * sim.Millisecond,
		Traffic:  Saturated,
		Metrics:  m,
	})
	if mv, ok := m.Snapshot().Get("mac.delay_us"); !ok || mv.Value == 0 {
		t.Fatalf("mac.delay_us = %+v, want delivered samples", mv)
	}
}

// TestMetricsDeterministic: every metric is a function of the scenario and
// its seed, so two identical metrics-on DOMINO runs snapshot identically —
// no host-time measurement leaks into the registry.
func TestMetricsDeterministic(t *testing.T) {
	snap := func() obs.Snapshot {
		return mustRun(t, Scenario{
			Net:      topo.Figure7(),
			Downlink: true,
			Uplink:   true,
			Scheme:   DOMINO,
			Seed:     5,
			Duration: 300 * sim.Millisecond,
			Traffic:  Saturated,
			Metrics:  obs.NewMetrics(),
		}).Snapshot
	}
	a, b := snap(), snap()
	if len(a) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i < len(b) && a[i] != b[i] {
				t.Errorf("first difference: %+v vs %+v", a[i], b[i])
				break
			}
		}
		t.Fatal("two identical runs produced different metrics snapshots")
	}
}

package poll_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/poll"
)

// ropCycle lays clients out on a fresh registered ROP poller and decodes one
// cycle at a -94 dBm noise floor; tr (may be nil) receives the per-client
// records, stamped at 42 and parented to span 7.
func ropCycle(t *testing.T, clients []phy.NodeID, rss map[phy.NodeID]float64,
	queue func(phy.NodeID) int, tr obs.Tracer) (poll.Poller, poll.Result) {
	t.Helper()
	p, err := poll.Build("ROP", nil)
	if err != nil {
		t.Fatal(err)
	}
	rssFn := func(c phy.NodeID) float64 { return rss[c] }
	p.Assign(clients, rssFn)
	return p, p.Poll(poll.Context{Queue: queue, RSSAtAP: rssFn, NoiseDBm: -94, Tracer: tr, Now: 42, Span: 7})
}

func constQueue(n int) func(phy.NodeID) int { return func(phy.NodeID) int { return n } }

func TestROPSortsByRSS(t *testing.T) {
	rss := map[phy.NodeID]float64{10: -70, 11: -50, 12: -60, 13: -80}
	p, _ := ropCycle(t, []phy.NodeID{10, 11, 12, 13}, rss, constQueue(1), nil)
	// Strongest first: 11, 12, 10, 13 on subchannels 0..3.
	want := []phy.NodeID{11, 12, 10, 13}
	got := p.Clients()
	if len(got) != len(want) {
		t.Fatalf("layout = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layout = %v, want %v", got, want)
		}
	}
}

// TestROPOneGroupOf24 pins ROP as the grouped poller's one-group case: one
// control symbol of 24 subchannels, no knobs, one round for a full symbol.
func TestROPOneGroupOf24(t *testing.T) {
	d, ok := poll.Registry.Lookup("rop")
	if !ok || d.MaxClients != 24 || d.DefaultConfig != nil {
		t.Fatalf("ROP descriptor = %+v, want MaxClients 24 and no knobs", d)
	}
	clients := make([]phy.NodeID, d.MaxClients)
	rss := map[phy.NodeID]float64{}
	for i := range clients {
		clients[i] = phy.NodeID(i + 2)
		rss[clients[i]] = testRSS(clients[i])
	}
	p, res := ropCycle(t, clients, rss, testQueue, nil)
	if p.Rounds() != 1 || res.Rounds != 1 {
		t.Fatalf("Rounds() %d, Result.Rounds %d; want one round", p.Rounds(), res.Rounds)
	}
	if len(res.Values) != d.MaxClients || len(res.Failed) != 0 {
		t.Fatalf("decoded %d, failed %v; want all %d decoded", len(res.Values), res.Failed, d.MaxClients)
	}
}

func TestROPDecodeCleanRound(t *testing.T) {
	rss := map[phy.NodeID]float64{1: -55, 2: -60, 3: -65}
	queues := map[phy.NodeID]int{1: 0, 2: 17, 3: 200}
	_, res := ropCycle(t, []phy.NodeID{1, 2, 3}, rss, func(c phy.NodeID) int { return queues[c] }, nil)
	if len(res.Failed) != 0 {
		t.Fatalf("failures in a clean round: %v", res.Failed)
	}
	if res.Values[1] != 0 || res.Values[2] != 17 {
		t.Errorf("values = %v", res.Values)
	}
	// Saturation at the 6-bit field (paper §3.1: report 63, track the rest).
	if res.Values[3] != 63 {
		t.Errorf("queue 200 reported as %d, want 63", res.Values[3])
	}
}

func TestROPDecodeAdjacentOverpower(t *testing.T) {
	// A >38 dB difference between adjacent subchannels kills the weak one.
	rss := map[phy.NodeID]float64{1: -40, 2: -80}
	_, res := ropCycle(t, []phy.NodeID{1, 2}, rss, constQueue(5), nil)
	if len(res.Failed) != 1 || res.Failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", res.Failed)
	}
	if _, ok := res.Values[1]; !ok {
		t.Error("strong client should decode")
	}
}

func TestROPDecodeSortingSeparatesExtremes(t *testing.T) {
	// Sorted assignment keeps a 44 dB total span decodable as long as each
	// adjacent step stays within tolerance: given in the order 1, 3, 2 the
	// -40 and -84 dBm reports would be neighbours.
	rss := map[phy.NodeID]float64{1: -40, 2: -62, 3: -84}
	_, res := ropCycle(t, []phy.NodeID{1, 3, 2}, rss, constQueue(1), nil)
	if len(res.Failed) != 0 {
		t.Fatalf("failed = %v; sorted assignment should separate extremes", res.Failed)
	}
}

func TestROPDecodeSNRFloor(t *testing.T) {
	rss := map[phy.NodeID]float64{1: -91} // SNR 3 dB < 4
	_, res := ropCycle(t, []phy.NodeID{1}, rss, constQueue(9), nil)
	if len(res.Failed) != 1 {
		t.Fatalf("sub-floor client decoded: %v", res.Values)
	}
}

// TestROPPollRecords checks the trace contract: one KindROPPoll record per
// client in layout order, Extra the subchannel, Parent the soliciting poll's
// span, Value/OK the decode outcome.
func TestROPPollRecords(t *testing.T) {
	rss := map[phy.NodeID]float64{10: -60, 11: -61, 12: -120} // 12 is below the floor
	queue := func(c phy.NodeID) int { return int(c) - 9 }     // 1, 2, 3
	var buf obs.Buffer
	p, res := ropCycle(t, []phy.NodeID{12, 11, 10}, rss, queue, &buf)
	recs := buf.Records()
	layout := p.Clients()
	if len(recs) != len(layout) {
		t.Fatalf("emitted %d records, want one per client (%d)", len(recs), len(layout))
	}
	okCount := 0
	for i, r := range recs {
		if r.Kind != obs.KindROPPoll || r.At != 42 || r.Parent != 7 {
			t.Fatalf("record %d = %+v, want a rop_poll at 42 parented to span 7", i, r)
		}
		if r.Node != int(layout[i]) || r.Extra != int64(i) {
			t.Fatalf("record %d order broken: %+v vs client %d subchannel %d", i, r, layout[i], i)
		}
		if v, ok := res.Values[layout[i]]; ok != r.OK || int64(v) != r.Value {
			t.Fatalf("record %d = %+v, result value %d decoded %v", i, r, v, ok)
		}
		if r.OK {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("%d reports decoded, want 2 (node 12 is below the floor)", okCount)
	}
}

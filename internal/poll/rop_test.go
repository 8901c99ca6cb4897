package poll_test

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/poll"
)

// ropCycle lays clients out on a fresh registered ROP poller and judges one
// cycle at a -94 dBm noise floor.
func ropCycle(t *testing.T, clients []phy.NodeID, rss map[phy.NodeID]float64,
	queue func(phy.NodeID) int) (poll.Poller, []poll.Report) {
	t.Helper()
	p, err := poll.Build("ROP", nil)
	if err != nil {
		t.Fatal(err)
	}
	rssFn := func(c phy.NodeID) float64 { return rss[c] }
	p.Assign(clients, rssFn)
	return p, p.AppendReports(nil, poll.Context{Queue: queue, RSSAtAP: rssFn, NoiseDBm: -94})
}

// decoded maps each OK report's client to its value.
func decoded(reports []poll.Report) map[phy.NodeID]int {
	m := map[phy.NodeID]int{}
	for _, r := range reports {
		if r.OK {
			m[r.Client] = r.Value
		}
	}
	return m
}

// failed lists the clients of the reports that did not decode, in order.
func failed(reports []poll.Report) []phy.NodeID {
	var out []phy.NodeID
	for _, r := range reports {
		if !r.OK {
			out = append(out, r.Client)
		}
	}
	return out
}

func constQueue(n int) func(phy.NodeID) int { return func(phy.NodeID) int { return n } }

func TestROPSortsByRSS(t *testing.T) {
	rss := map[phy.NodeID]float64{10: -70, 11: -50, 12: -60, 13: -80}
	_, reports := ropCycle(t, []phy.NodeID{10, 11, 12, 13}, rss, constQueue(1))
	// Strongest first: 11, 12, 10, 13 on subchannels 0..3, reported in
	// layout order.
	want := []phy.NodeID{11, 12, 10, 13}
	if len(reports) != len(want) {
		t.Fatalf("reports = %+v, want clients %v", reports, want)
	}
	for i, r := range reports {
		if r.Client != want[i] || r.Subchannel != i {
			t.Fatalf("reports = %+v, want clients %v on subchannels 0..3", reports, want)
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
	p, reports := ropCycle(t, clients, rss, testQueue)
	if p.Rounds() != 1 {
		t.Fatalf("Rounds() %d; want one round", p.Rounds())
	}
	if got, bad := decoded(reports), failed(reports); len(got) != d.MaxClients || len(bad) != 0 {
		t.Fatalf("decoded %d, failed %v; want all %d decoded", len(got), bad, d.MaxClients)
	}
}

func TestROPDecodeCleanRound(t *testing.T) {
	rss := map[phy.NodeID]float64{1: -55, 2: -60, 3: -65}
	queues := map[phy.NodeID]int{1: 0, 2: 17, 3: 200}
	_, reports := ropCycle(t, []phy.NodeID{1, 2, 3}, rss, func(c phy.NodeID) int { return queues[c] })
	if bad := failed(reports); len(bad) != 0 {
		t.Fatalf("failures in a clean round: %v", bad)
	}
	values := decoded(reports)
	if values[1] != 0 || values[2] != 17 {
		t.Errorf("values = %v", values)
	}
	// Saturation at the 6-bit field (paper §3.1: report 63, track the rest).
	if values[3] != 63 {
		t.Errorf("queue 200 reported as %d, want 63", values[3])
	}
}

func TestROPDecodeAdjacentOverpower(t *testing.T) {
	// A >38 dB difference between adjacent subchannels kills the weak one.
	rss := map[phy.NodeID]float64{1: -40, 2: -80}
	_, reports := ropCycle(t, []phy.NodeID{1, 2}, rss, constQueue(5))
	if bad := failed(reports); len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("failed = %v, want [2]", bad)
	}
	if _, ok := decoded(reports)[1]; !ok {
		t.Error("strong client should decode")
	}
}

func TestROPDecodeSortingSeparatesExtremes(t *testing.T) {
	// Sorted assignment keeps a 44 dB total span decodable as long as each
	// adjacent step stays within tolerance: given in the order 1, 3, 2 the
	// -40 and -84 dBm reports would be neighbours.
	rss := map[phy.NodeID]float64{1: -40, 2: -62, 3: -84}
	_, reports := ropCycle(t, []phy.NodeID{1, 3, 2}, rss, constQueue(1))
	if bad := failed(reports); len(bad) != 0 {
		t.Fatalf("failed = %v; sorted assignment should separate extremes", bad)
	}
}

func TestROPDecodeSNRFloor(t *testing.T) {
	rss := map[phy.NodeID]float64{1: -91} // SNR 3 dB < 4
	_, reports := ropCycle(t, []phy.NodeID{1}, rss, constQueue(9))
	if len(failed(reports)) != 1 {
		t.Fatalf("sub-floor client decoded: %+v", reports)
	}
}

package domino

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestROPPollRecords checks the poll trace contract the engine keeps: a
// cycle's decode emits one KindROPPoll record per report, in layout order
// (strongest client first), Extra the subchannel, Parent the soliciting
// poll's span, Value/OK the decode outcome. After the wired trip the server
// takes each decoded value as the client's uplink estimate.
func TestROPPollRecords(t *testing.T) {
	// AP 0 with clients 1 and 2 in range and client 3 below the decode
	// floor; the layout is 2, 1, 3.
	atAP := []float64{0, -61, -60, -120}
	rss := make([][]float64, len(atAP))
	for i := range rss {
		rss[i] = make([]float64, len(atAP))
		for j := range rss[i] {
			rss[i][j] = -150
		}
	}
	for c := 1; c < len(atAP); c++ {
		rss[c][0], rss[0][c] = atAP[c], atAP[c]
	}
	net := &topo.Network{RSS: rss, IsAP: []bool{true, false, false, false}, APOf: []phy.NodeID{0, 0, 0, 0}, APs: []phy.NodeID{0}}
	links := net.BuildLinks(true, true)
	g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
	k := sim.New(1)
	e := New(k, phy.NewMedium(k, net.RSS, phy.DefaultConfig()), g, nil, DefaultConfig())
	buf := &obs.Buffer{}
	e.Obs = buf
	// Client c queues c packets on its uplink.
	uplink := map[phy.NodeID]int{}
	for _, l := range links {
		if !l.Downlink {
			uplink[l.Sender] = l.ID
			for i := 0; i < int(l.Sender); i++ {
				e.Enqueue(mac.Packet{Link: int32(l.ID), Bytes: 512})
			}
		}
	}
	k.RunUntil(sim.Millisecond)
	c := e.aps[0].call((*apCall).decode)
	c.span = 7
	c.fn()

	recs := buf.Records()
	want := []struct {
		client phy.NodeID
		value  int64
		ok     bool
	}{{2, 2, true}, {1, 1, true}, {3, 0, false}}
	if len(recs) != len(want) {
		t.Fatalf("emitted %d records, want one per client (%d): %+v", len(recs), len(want), recs)
	}
	for i, r := range recs {
		w := want[i]
		if r.Kind != obs.KindROPPoll || r.At != k.Now() || r.Parent != 7 {
			t.Fatalf("record %d = %+v, want a rop_poll at %v parented to span 7", i, r, k.Now())
		}
		if r.Node != int(w.client) || r.Extra != int64(i) || r.Value != w.value || r.OK != w.ok {
			t.Fatalf("record %d = %+v, want client %d on subchannel %d, value %d, decoded %v", i, r, w.client, i, w.value, w.ok)
		}
	}
	if e.PollRounds != 1 || e.PollDecoded != 2 || e.PollFailed != 1 || e.PollCollisions != 0 {
		t.Fatalf("poll counters rounds %d decoded %d failed %d collisions %d, want 1, 2, 1, 0",
			e.PollRounds, e.PollDecoded, e.PollFailed, e.PollCollisions)
	}
	k.RunUntil(sim.Second)
	for _, w := range want {
		if got := e.server.upEst[uplink[w.client]]; got != int(w.value) {
			t.Errorf("server estimate of client %d's uplink = %d, want %d", w.client, got, w.value)
		}
	}
}

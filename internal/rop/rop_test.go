package rop

import (
	"math/rand"
	"testing"

	"repro/internal/phy"
)

func TestAssignSortsByRSS(t *testing.T) {
	clients := []phy.NodeID{10, 11, 12, 13}
	rss := map[phy.NodeID]float64{10: -70, 11: -50, 12: -60, 13: -80}
	a := Assign(clients, func(c phy.NodeID) float64 { return rss[c] })
	// Strongest first: 11, 12, 10, 13 on subchannels 0..3.
	want := []phy.NodeID{11, 12, 10, 13}
	for i, c := range want {
		if a.Clients[i] != c || a.Subchannels[i] != i {
			t.Fatalf("assignment = %v / %v", a.Clients, a.Subchannels)
		}
	}
	if a.Subchannel(12) != 1 || a.Subchannel(99) != -1 {
		t.Errorf("Subchannel lookup wrong")
	}
}

func TestAssignTooManyPanics(t *testing.T) {
	clients := make([]phy.NodeID, MaxClients+1)
	defer func() {
		if recover() == nil {
			t.Error("oversubscribed Assign did not panic")
		}
	}()
	Assign(clients, func(phy.NodeID) float64 { return -60 })
}

func TestDecodeCleanRound(t *testing.T) {
	clients := []phy.NodeID{1, 2, 3}
	rss := map[phy.NodeID]float64{1: -55, 2: -60, 3: -65}
	queues := map[phy.NodeID]int{1: 0, 2: 17, 3: 200}
	a := Assign(clients, func(c phy.NodeID) float64 { return rss[c] })
	res := Decode(a,
		func(c phy.NodeID) int { return queues[c] },
		func(c phy.NodeID) float64 { return rss[c] },
		-94, rand.New(rand.NewSource(1)))
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

func TestDecodeAdjacentOverpower(t *testing.T) {
	// A >38 dB difference between adjacent subchannels kills the weak one.
	clients := []phy.NodeID{1, 2}
	rss := map[phy.NodeID]float64{1: -40, 2: -80}
	a := Assign(clients, func(c phy.NodeID) float64 { return rss[c] })
	res := Decode(a,
		func(phy.NodeID) int { return 5 },
		func(c phy.NodeID) float64 { return rss[c] },
		-94, rand.New(rand.NewSource(1)))
	if len(res.Failed) != 1 || res.Failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", res.Failed)
	}
	if _, ok := res.Values[1]; !ok {
		t.Error("strong client should decode")
	}
}

func TestDecodeSortingSeparatesExtremes(t *testing.T) {
	// Sorted assignment keeps a 44 dB total span decodable as long as each
	// adjacent step stays within tolerance.
	clients := []phy.NodeID{1, 2, 3}
	rss := map[phy.NodeID]float64{1: -40, 2: -62, 3: -84}
	a := Assign(clients, func(c phy.NodeID) float64 { return rss[c] })
	res := Decode(a,
		func(phy.NodeID) int { return 1 },
		func(c phy.NodeID) float64 { return rss[c] },
		-94, rand.New(rand.NewSource(1)))
	if len(res.Failed) != 0 {
		t.Fatalf("failed = %v; sorted assignment should separate extremes", res.Failed)
	}
}

// DecodeInto with a warm Result must not allocate: the poller registry seam
// may not put allocations on the paper's per-poll path. 24 clients fill the
// subchannel set; RSS spreads over 17 dB, so every report decodes.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	clients := make([]phy.NodeID, MaxClients)
	for i := range clients {
		clients[i] = phy.NodeID(i + 2)
	}
	rss := func(c phy.NodeID) float64 { return -40 - float64(c%17) }
	queue := func(c phy.NodeID) int { return int(c%5) + 1 }
	a := Assign(clients, rss)
	var res Result
	DecodeInto(&res, a, queue, rss, -95) // warm the scratch
	if got := testing.AllocsPerRun(200, func() {
		DecodeInto(&res, a, queue, rss, -95)
	}); got != 0 {
		t.Fatalf("DecodeInto allocates %v/op with warm scratch, want 0", got)
	}
	if len(res.Values) != MaxClients || len(res.Failed) != 0 {
		t.Fatalf("decoded %d, failed %v; want all %d decoded", len(res.Values), res.Failed, MaxClients)
	}
}

func TestDecodeSNRFloor(t *testing.T) {
	clients := []phy.NodeID{1}
	a := Assign(clients, func(phy.NodeID) float64 { return -91 }) // SNR 3 dB < 4
	res := Decode(a,
		func(phy.NodeID) int { return 9 },
		func(phy.NodeID) float64 { return -91 },
		-94, rand.New(rand.NewSource(1)))
	if len(res.Failed) != 1 {
		t.Fatalf("sub-floor client decoded: %v", res.Values)
	}
}

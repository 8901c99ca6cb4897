package domino

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestPiggybackStarvation reproduces the §2 motivation for ROP: under
// piggyback-only queue reporting (and without the fake cover's opportunism),
// a client that was silent when its traffic arrives can never announce it —
// the server never schedules the uplink and the burst starves. With ROP the
// next poll discovers the backlog and the burst drains.
func TestPiggybackStarvation(t *testing.T) {
	run := func(piggy bool) (delivered int) {
		net := topo.TwoPairs(topo.ExposedTerminals)
		links := net.BuildLinks(true, true)
		g := topo.NewConflictGraph(net, links, phy.DefaultConfig(), phy.Rate12)
		k := sim.New(13)
		medium := phy.NewMedium(k, net.RSS, phy.DefaultConfig())
		hub := &mac.Hub{}
		cfg := DefaultConfig()
		cfg.Piggyback = piggy
		cfg.NoFakeCover = true // isolate the reporting channel
		engine := New(k, medium, g, hub, cfg)
		var got int
		hub.Add(counterEvents{&got})
		// Keep the downlinks mildly busy so the chain lives.
		var downSeq uint32
		feedDown := func() {}
		feedDown = func() {
			for _, l := range links {
				if l.Downlink {
					engine.Enqueue(mac.Packet{Link: int32(l.ID), Bytes: 512, Enqueued: k.Now(), Seq: downSeq})
					downSeq++
				}
			}
			k.After(2*sim.Millisecond, feedDown)
		}
		k.After(0, feedDown)
		// The uplink burst arrives AFTER the flows started: 40 packets on
		// client 1's uplink at t = 300 ms.
		var uplink *topo.Link
		for _, l := range links {
			if !l.Downlink && l.Sender == 1 {
				uplink = l
			}
		}
		k.At(300*sim.Millisecond, func() {
			for i := 0; i < 40; i++ {
				engine.Enqueue(mac.Packet{Link: int32(uplink.ID), Bytes: 512, Enqueued: k.Now(), Seq: uint32(i)})
			}
		})
		engine.Start()
		k.RunUntil(2 * sim.Second)
		return engine.QueueLen(uplink.ID)
	}
	piggyLeft := run(true)
	ropLeft := run(false)
	if ropLeft > 5 {
		t.Errorf("ROP left %d burst packets queued; polling should discover them", ropLeft)
	}
	if piggyLeft < 30 {
		t.Errorf("piggyback drained the burst (%d left); the starvation argument needs it stuck", piggyLeft)
	}
}

type counterEvents struct{ n *int }

func (c counterEvents) Delivered(*mac.Packet, sim.Time) { *c.n++ }
func (c counterEvents) Dropped(*mac.Packet, sim.Time)   {}

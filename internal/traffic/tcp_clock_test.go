package traffic

import (
	"testing"

	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topo"
)

// sink is a MAC that queues every packet and serves none, so a test hands
// the flow its ACKs by hand.
type sink struct{ sent []mac.Packet }

func (s *sink) Start()                    {}
func (s *sink) Enqueue(p mac.Packet) bool { s.sent = append(s.sent, p); return true }
func (s *sink) QueueLen(int) int          { return 0 }

// startedFlow starts a 10 Mbps flow on a MAC that delivers nothing. Its
// two initial segments fill the window, so its 64th tick fills the bucket
// and parks the clock.
func startedFlow(t *testing.T) (*sim.Kernel, *TCPFlow, *sink) {
	t.Helper()
	k := sim.New(1)
	e := &sink{}
	f := NewTCPFlow(k, e, 0, &topo.Link{ID: 0}, &topo.Link{ID: 1}, DefaultTCPConfig(10))
	f.Start()
	if f.interval != 409600 {
		t.Fatalf("interval %v, want 409.6 µs", f.interval)
	}
	return k, f, e
}

// parkedFlow runs a startedFlow to the instant its token clock parks.
func parkedFlow(t *testing.T) (*sim.Kernel, *TCPFlow, *sink) {
	t.Helper()
	k, f, e := startedFlow(t)
	k.RunUntil(tokenCap * f.interval)
	if f.tick.Scheduled() || f.lastTick != tokenCap*f.interval || f.appTokens != tokenCap {
		t.Fatalf("clock not parked after 64 ticks: scheduled %v, last tick %v, %v tokens",
			f.tick.Scheduled(), f.lastTick, f.appTokens)
	}
	return k, f, e
}

// ackAt has an event scheduled at instant made deliver the ACK of segment
// seq-1 (AckSeq seq) at instant at.
func ackAt(k *sim.Kernel, f *TCPFlow, made, at sim.Time, seq uint32) {
	k.At(made, func() {
		k.At(at, func() {
			f.Delivered(&mac.Packet{Link: int32(f.ack.ID), FlowID: int32(f.id), TCPAck: true, AckSeq: seq}, k.Now())
		}).SetSource(sim.SrcMAC)
	})
}

// TestTokenClockRestartsOnItsGrid: an ACK that leaves the bucket below its
// cap restarts a parked clock at the next instant of the grid it left,
// lastTick + m·interval, and the restarted tick raises the bucket there.
// The ACK's event was scheduled intervals earlier, as a long bundle's end
// is.
func TestTokenClockRestartsOnItsGrid(t *testing.T) {
	k, f, e := parkedFlow(t)
	last, iv := f.lastTick, f.interval
	at := last + 5*iv + 123456
	ackAt(k, f, last+1, at, 1)
	k.RunUntil(at)
	if len(e.sent) != 4 || f.appTokens != tokenCap-2 {
		t.Fatalf("the ACK sent %d segments in all, %v tokens left; want 4 and %d", len(e.sent), f.appTokens, tokenCap-2)
	}
	if got, want := f.tick.At(), last+6*iv; !f.tick.Scheduled() || got != want {
		t.Fatalf("restarted tick at %v (scheduled %v), want %v", got, f.tick.Scheduled(), want)
	}
	k.RunUntil(last + 6*iv)
	if f.lastTick != last+6*iv || f.appTokens != tokenCap-1 {
		t.Errorf("after the restarted tick: last tick %v, %v tokens; want %v and %d", f.lastTick, f.appTokens, last+6*iv, tokenCap-1)
	}
}

// TestTokenClockRestartOnATickInstant: an ACK due exactly on a grid
// instant T finds the always-running clock's tick at T already run if and
// only if the ACK's event was scheduled after T-interval, where that tick
// would have been scheduled. If it had run, the restarted clock skips T;
// if not, it ticks at T after the ACK, as the always-running clock would.
func TestTokenClockRestartOnATickInstant(t *testing.T) {
	for _, tc := range []struct {
		name string
		made func(T, iv sim.Time) sim.Time
		ran  bool // the always-running clock's tick at T ran before the ACK
	}{
		// A frame shorter than one interval: its end was scheduled after
		// the previous tick instant.
		{"scheduled after T-interval", func(T, iv sim.Time) sim.Time { return T - iv + 1 }, true},
		// A bundle longer than one interval: scheduled before it.
		{"scheduled before T-interval", func(T, iv sim.Time) sim.Time { return T - iv - 1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, f, _ := parkedFlow(t)
			parkedAt := f.lastTick
			T := parkedAt + 5*f.interval
			ackAt(k, f, tc.made(T, f.interval), T, 1)
			k.RunUntil(T)
			// The ACK sends two segments out of the full bucket; a tick at
			// T after it raises the bucket by one.
			wantLast, wantTokens := T, float64(tokenCap-1)
			if tc.ran {
				wantLast, wantTokens = parkedAt, tokenCap-2
			}
			if f.lastTick != wantLast || f.appTokens != wantTokens {
				t.Errorf("after T: last tick %v, %v tokens; want %v and %v", f.lastTick, f.appTokens, wantLast, wantTokens)
			}
			if got, want := f.tick.At(), T+f.interval; !f.tick.Scheduled() || got != want {
				t.Errorf("next tick at %v (scheduled %v), want %v", got, f.tick.Scheduled(), want)
			}
		})
	}
}

// TestTokenClockWakesAfterItsParkingTick: an ACK due at the instant of the
// tick that parked the clock, and run after it, restarts the clock one
// interval later, even when the ACK's event was scheduled exactly at the
// grid instant before, where the rule alone cannot tell.
func TestTokenClockWakesAfterItsParkingTick(t *testing.T) {
	k, f, _ := startedFlow(t)
	iv := f.interval
	parkAt := tokenCap * iv
	// Scheduled after the tick at parkAt-iv ran, the event at parkAt-iv
	// runs after it, and so does the ACK it schedules after the parking tick.
	k.At(parkAt-2*iv+1, func() { ackAt(k, f, parkAt-iv, parkAt, 1) })
	k.RunUntil(parkAt)
	if f.lastTick != parkAt || f.appTokens != tokenCap-2 {
		t.Errorf("last tick %v, %v tokens; want %v and %d", f.lastTick, f.appTokens, parkAt, tokenCap-2)
	}
	if got, want := f.tick.At(), parkAt+iv; !f.tick.Scheduled() || got != want {
		t.Errorf("next tick at %v (scheduled %v), want %v", got, f.tick.Scheduled(), want)
	}
}

// TestTokenClockStaysParkedThroughRTO: an RTO retransmits with a window of
// one and a segment outstanding, so the window stays closed and the full
// bucket keeps the clock parked; the tick it would have run did nothing.
func TestTokenClockStaysParkedThroughRTO(t *testing.T) {
	k, f, e := parkedFlow(t)
	k.RunUntil(1100 * sim.Millisecond) // the first RTO is 1 s after the first send
	if f.Timeouts != 1 || f.Retransmits != 1 || len(e.sent) != 3 {
		t.Fatalf("timeouts %d, retransmits %d, %d packets; want 1, 1, 3", f.Timeouts, f.Retransmits, len(e.sent))
	}
	if f.tick.Scheduled() || f.lastTick != tokenCap*f.interval {
		t.Errorf("the RTO restarted the clock: scheduled %v, last tick %v", f.tick.Scheduled(), f.lastTick)
	}
}

// TestRegrowKeepsTheWindow: a grown ring keeps each entry of the old
// window at its sequence number, and an entry past the old window reads
// zero, not the old entry that shared its slot.
func TestRegrowKeepsTheWindow(t *testing.T) {
	ring := make([]bool, 4)
	ring[7&3], ring[9&3] = true, true // the window is [6, 10)
	for _, upTo := range []uint64{10, 23} {
		got := regrow(ring, 6, upTo)
		if n := len(got); n&(n-1) != 0 || upTo-6 >= uint64(n) {
			t.Fatalf("upTo %d: length %d is not a power of two that holds the window", upTo, n)
		}
		for s := uint64(6); s <= upTo; s++ {
			if want := s == 7 || s == 9; got[s&uint64(len(got)-1)] != want {
				t.Errorf("upTo %d: segment %d reads %v, want %v", upTo, s, !want, want)
			}
		}
	}
}

// TestTokenClockAtAnyRate: a rate whose segment interval rounds to zero
// still gets a clock that advances, parks and wakes.
func TestTokenClockAtAnyRate(t *testing.T) {
	k := sim.New(1)
	f := NewTCPFlow(k, &sink{}, 0, &topo.Link{ID: 0}, &topo.Link{ID: 1}, DefaultTCPConfig(1e7))
	f.Start()
	ackAt(k, f, 0, sim.Millisecond, 1)
	k.RunUntil(2 * sim.Millisecond)
	if f.interval != 1 || f.tick.Scheduled() || f.sndMax != 4 {
		t.Errorf("interval %v, clock scheduled %v, %d segments sent; want 1 ns, parked, 4", f.interval, f.tick.Scheduled(), f.sndMax)
	}
}

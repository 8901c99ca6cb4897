package mac

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestPacketFitsCacheLine pins the packet's size: a queue's ring holds at
// most 64 bytes per packet. That it holds no pointer is pinned with the
// other pointer-free hot structs by phy's TestHotStructsHoldNoPointers,
// whose type walker lives there.
func TestPacketFitsCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 64 {
		t.Errorf("mac.Packet is %d bytes, want at most 64", size)
	}
}

func TestQueueFIFOAndBounds(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if q.Push(&Packet{Seq: uint32(i)}) == nil {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(&Packet{Seq: 99}) != nil {
		t.Fatal("push beyond cap accepted")
	}
	for i := 0; i < 3; i++ {
		if got, ok := q.Pop(); !ok || got.Seq != uint32(i) {
			t.Fatalf("pop %d returned seq %d (ok %v)", i, got.Seq, ok)
		}
	}
	if _, ok := q.Pop(); ok || q.Peek() != nil {
		t.Fatal("empty queue returned a packet")
	}
}

func TestQueuePushFront(t *testing.T) {
	q := NewQueue(DefaultQueueCap)
	q.Push(&Packet{Seq: 1})
	q.PushFront(&Packet{Seq: 0})
	if q.Peek().Seq != 0 {
		t.Fatal("PushFront not at head")
	}
	if q.cap != DefaultQueueCap {
		t.Fatalf("cap = %d", q.cap)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
}

// sliceQueue is the queue as a plain slice, the reference the ring buffer
// is checked against: Pop re-slices and PushFront copies the whole backlog.
type sliceQueue struct {
	pkts []Packet
	cap  int
}

func (q *sliceQueue) Push(p *Packet) bool {
	if len(q.pkts) >= q.cap {
		return false
	}
	q.pkts = append(q.pkts, *p)
	return true
}

func (q *sliceQueue) Pop() (Packet, bool) {
	if len(q.pkts) == 0 {
		return Packet{}, false
	}
	p := q.pkts[0]
	q.pkts = q.pkts[1:]
	return p, true
}

func (q *sliceQueue) Peek() *Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	return &q.pkts[0]
}

func (q *sliceQueue) PushFront(p *Packet) { q.pkts = append([]Packet{*p}, q.pkts...) }

// samePacket reports whether two Peek results agree: both empty, or equal
// packets.
func samePacket(a, b *Packet) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// queueOp is one scripted call; p is the packet Push and PushFront take.
type queueOp struct {
	kind int
	p    *Packet
}

const (
	opPush = iota
	opPop
	opPeek
	opPushFront
)

// runQueueScript applies ops to the ring buffer and the slice model and
// fails at the first call whose result, length or depth report differs.
func runQueueScript(t *testing.T, name string, capacity int, ops []queueOp) {
	t.Helper()
	q := NewQueue(capacity)
	m := &sliceQueue{cap: capacity}
	depth := -1
	q.OnDepth = func(d int) { depth = d }
	for i, op := range ops {
		depth = -1
		var got, want Packet
		var gotOK, wantOK bool
		wantDepth := -1
		switch op.kind {
		case opPush:
			stored := q.Push(op.p)
			gotOK, wantOK = stored != nil, m.Push(op.p)
			if stored != nil && *stored != *op.p {
				t.Fatalf("%s op %d: Push returned %+v for %+v", name, i, *stored, *op.p)
			}
			if wantOK {
				wantDepth = len(m.pkts)
			}
		case opPop:
			got, gotOK = q.Pop()
			want, wantOK = m.Pop()
			if wantOK {
				wantDepth = len(m.pkts)
			}
		case opPeek:
			if !samePacket(q.Peek(), m.Peek()) {
				t.Fatalf("%s op %d: Peek disagrees with the model", name, i)
			}
		case opPushFront:
			q.PushFront(op.p)
			m.PushFront(op.p)
			wantDepth = len(m.pkts)
		}
		if got != want || gotOK != wantOK || q.Len() != len(m.pkts) || depth != wantDepth || !samePacket(q.Peek(), m.Peek()) {
			t.Fatalf("%s op %d (kind %d): got (%v, %v, len %d, depth %d), model (%v, %v, len %d, depth %d)",
				name, i, op.kind, got, gotOK, q.Len(), depth, want, wantOK, len(m.pkts), wantDepth)
		}
	}
	for len(m.pkts) > 0 {
		got, _ := q.Pop()
		if want, _ := m.Pop(); got != want {
			t.Fatalf("%s drain: got %v, model %v", name, got, want)
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 || q.cap != capacity {
		t.Fatalf("%s: drained queue has len %d, cap %d", name, q.Len(), q.cap)
	}
}

// TestQueueMatchesSliceModel checks the ring buffer call by call against
// the slice model: a fixed script of the tail-drop and re-insert semantics,
// then random Push/Pop/Peek/PushFront mixes whose small bounds and
// pop-heavy phases wrap the ring many times, grow it mid-wrap, and re-insert
// past the bound.
func TestQueueMatchesSliceModel(t *testing.T) {
	a, b, c := &Packet{Seq: 1}, &Packet{Seq: 2}, &Packet{Seq: 3}
	runQueueScript(t, "semantics", 2, []queueOp{
		{opPush, a}, {opPush, b}, {opPush, c}, // c is tail-dropped
		{opPeek, nil}, {opPop, nil}, // a
		{opPushFront, c}, {opPop, nil}, {opPop, nil}, {opPop, nil}, // c, b, empty
		{opPush, a}, {opPush, b}, {opPushFront, c}, {opPushFront, a}, // re-inserts past the bound
	})
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		ops := make([]queueOp, 5000)
		for i := range ops {
			// Alternate push-heavy and pop-heavy phases so the backlog
			// swings between empty and past the bound.
			pushBias := 6
			if (i/200)%2 == 1 {
				pushBias = 3
			}
			r := rng.Intn(10)
			switch {
			case r < pushBias:
				ops[i] = queueOp{opPush, &Packet{Seq: uint32(i)}}
			case r < 8:
				ops[i] = queueOp{opPop, nil}
			case r < 9:
				ops[i] = queueOp{opPeek, nil}
			default:
				ops[i] = queueOp{opPushFront, &Packet{Seq: uint32(i)}}
			}
		}
		runQueueScript(t, fmt.Sprintf("seed %d cap %d", seed, capacity), capacity, ops)
	}
}

// TestQueueZeroAllocSteadyState pins the ring buffer's point: once the
// backing array has grown to the working depth, pushes, pops and
// re-inserts that wrap around it allocate nothing.
func TestQueueZeroAllocSteadyState(t *testing.T) {
	q := NewQueue(DefaultQueueCap)
	pkts := make([]Packet, 64)
	for i := range pkts {
		pkts[i] = Packet{Seq: uint32(i)}
	}
	for i := range pkts[:48] {
		q.Push(&pkts[i])
	}
	for q.Len() > 0 {
		q.Pop()
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for j := 0; j < 40; j++ {
			q.Push(&pkts[(i+j)%len(pkts)])
		}
		p, _ := q.Pop()
		q.PushFront(&p)
		for q.Len() > 0 {
			q.Pop()
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state queue operations allocate %.1f times per round", allocs)
	}
}

type record struct {
	delivered, dropped int
}

func (r *record) Delivered(*Packet, sim.Time) { r.delivered++ }
func (r *record) Dropped(*Packet, sim.Time)   { r.dropped++ }

func TestHubFanOut(t *testing.T) {
	a, b := &record{}, &record{}
	p := &Packet{}

	h := &Hub{}
	h.Add(a)
	h.Delivered(p, 0)
	h.Add(b)
	h.Delivered(p, 0)
	h.Dropped(p, 0)

	if a.delivered != 2 || a.dropped != 1 {
		t.Errorf("sink a: %+v", a)
	}
	if b.delivered != 1 || b.dropped != 1 {
		t.Errorf("sink b: %+v", b)
	}
	NopEvents{}.Delivered(p, 0)
	NopEvents{}.Dropped(p, 0)
}

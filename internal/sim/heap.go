package sim

// hent is one queued event as the heap stores it: the (at, seq) key inline
// and id, the event's slot in the queue's registry. It holds no pointer, so
// a sift compares keys without dereferencing an event and moves entries
// without a GC write barrier.
type hent struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	id  int32
}

func (a hent) less(b hent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a monomorphic index-tracked 4-ary min-heap over pooled
// events, ordered by (at, seq). evs is the registry of every event struct
// the kernel ever allocated, indexed by event.id; each event's index field
// tracks its heap position (-1 when not queued), which supports O(log n)
// eager removal on Cancel. Because (at, seq) is a total order (seq is
// unique), the pop sequence is the exact sorted order regardless of arity or
// internal layout — the property the byte-identical trace contract rests on.
// A 4-ary heap is half as deep as a binary one, and the four children of a
// node sit in one or two cache lines.
type eventQueue struct {
	ents []hent
	evs  []*event
}

// push inserts e and records its heap index.
func (q *eventQueue) push(e hent) {
	q.ents = append(q.ents, hent{})
	q.up(len(q.ents)-1, e)
}

// popMin removes the minimum entry and returns its event.
func (q *eventQueue) popMin() *event {
	top := q.ents[0]
	n := len(q.ents) - 1
	last := q.ents[n]
	q.ents = q.ents[:n]
	if n > 0 {
		q.down(0, last)
	}
	ev := q.evs[top.id]
	ev.index = -1
	return ev
}

// remove deletes the entry at heap index i (the eager-Cancel path).
func (q *eventQueue) remove(i int) {
	ev := q.evs[q.ents[i].id]
	n := len(q.ents) - 1
	last := q.ents[n]
	q.ents = q.ents[:n]
	if i < n {
		if i > 0 && last.less(q.ents[(i-1)/4]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	ev.index = -1
}

// set stores e at heap index i and records the position on its event.
func (q *eventQueue) set(i int, e hent) {
	q.ents[i] = e
	q.evs[e.id].index = int32(i)
}

// up fills the hole at i with e, moving it toward the root.
func (q *eventQueue) up(i int, e hent) {
	for i > 0 {
		parent := (i - 1) / 4
		p := q.ents[parent]
		if !e.less(p) {
			break
		}
		q.set(i, p)
		i = parent
	}
	q.set(i, e)
}

// down fills the hole at i with e, moving it toward the leaves.
func (q *eventQueue) down(i int, e hent) {
	h := q.ents
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		m, mk := c, h[c]
		for j := c + 1; j < end; j++ {
			if h[j].less(mk) {
				m, mk = j, h[j]
			}
		}
		if !mk.less(e) {
			break
		}
		q.set(i, mk)
		i = m
	}
	q.set(i, e)
}

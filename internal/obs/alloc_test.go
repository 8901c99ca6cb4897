package obs

import "testing"

// LogHist.Record runs at every enqueue, dequeue and delivery when -metrics is
// on, so it must stay allocation-free across every bucket band. Each run
// records one cycling sample per power-of-two band up to 2^20: AllocsPerRun
// truncates its average, so a path that allocated only for some samples
// would otherwise read as 0.
func TestLogHistRecordZeroAllocs(t *testing.T) {
	var h LogHist
	i := int64(0)
	if got := testing.AllocsPerRun(200, func() {
		for band := int64(1); band <= 1<<20; band <<= 1 {
			h.Record(band | i&(band-1))
		}
		i++
	}); got != 0 {
		t.Fatalf("LogHist.Record allocates %v per 21-band sweep, want 0", got)
	}
}

// spanSink defeats dead-code elimination in TestSpanPathZeroAllocs.
var spanSink int64

// The engines' trigger hot path (domino.noteTrigger): a nil-guarded span
// allocation plus a chain-depth histogram record. Untraced runs take it with
// both pointers nil, traced runs with both live; neither may allocate. Span
// ids and depths start past the runtime's cached small integers, so an
// accidental boxing of either would allocate on every run.
func TestSpanPathZeroAllocs(t *testing.T) {
	path := func(sp *Spans, h *LogHist) float64 {
		depth := int64(1 << 10)
		return testing.AllocsPerRun(1000, func() {
			depth++
			if sp != nil {
				spanSink = sp.Next()
			}
			if h != nil {
				h.Record(depth)
			}
		})
	}
	if got := path(nil, nil); got != 0 {
		t.Fatalf("disabled span path allocates %v/op, want 0", got)
	}
	if got := path(NewSpansAt(1<<40), new(LogHist)); got != 0 {
		t.Fatalf("enabled span path allocates %v/op, want 0", got)
	}
}

package obs

// Spans allocates causal span ids for one run. Ids are a plain sequence
// starting at 1 (0 is the wire encoding for "no span"), handed out from the
// single-threaded event loop in event order — so spans are deterministic for
// a given seed and restart per run, which keeps merged multi-run traces
// byte-identical at any worker count.
//
// A nil *Spans is the disabled state: engines keep a *Spans field that stays
// nil when tracing is off, and every allocation site guards with one nil
// check, so the disabled path costs nothing (pinned at zero allocations by
// TestSpanPathZeroAllocs).
type Spans struct {
	last int64
}

// NewSpans returns a fresh allocator whose first Next is 1.
func NewSpans() *Spans { return &Spans{} }

// NewSpansAt returns an allocator whose first Next is base+1. Sharded runs
// give each interference domain a disjoint base (domain index shifted far
// above any per-domain span count), so span ids stay unique — and, because
// the base depends only on the domain, identical — in a merged trace at any
// shard count.
func NewSpansAt(base int64) *Spans { return &Spans{last: base} }

// Next returns a fresh span id. Not safe for concurrent use; spans belong to
// one simulation's event loop.
func (s *Spans) Next() int64 {
	s.last++
	return s.last
}

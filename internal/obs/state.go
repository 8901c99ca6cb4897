package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// LogHistState is the serializable snapshot of a LogHist: the sparse
// non-zero buckets plus the exact totals. It is Merge-compatible — Hist()
// reconstructs a histogram indistinguishable from the original, so a
// snapshotted histogram can be merged with later recording exactly as if it
// had never been serialized. Checkpoint documents (internal/run) embed these
// so restored runs can both audit replayed metric state and report
// mid-run quantiles without touching engine internals.
type LogHistState struct {
	N   int64 `json:"n"`
	Sum int64 `json:"sum"`
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Buckets lists [bucket index, count] pairs for non-zero buckets in
	// ascending index order.
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// State snapshots the histogram.
func (h *LogHist) State() LogHistState {
	s := LogHistState{N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, [2]int64{int64(i), c})
		}
	}
	return s
}

// Hist reconstructs the exact histogram the state was captured from.
// Out-of-range bucket indices (a corrupt or newer-format state) error.
func (s LogHistState) Hist() (*LogHist, error) {
	h := &LogHist{n: s.N, sum: s.Sum, min: s.Min, max: s.Max}
	for _, b := range s.Buckets {
		if b[0] < 0 || b[0] >= int64(lhBuckets) {
			return nil, fmt.Errorf("obs: loghist state bucket index %d out of range", b[0])
		}
		h.counts[b[0]] = b[1]
	}
	return h, nil
}

// MetricsState is the serializable snapshot of a Metrics registry:
// counters and gauges exactly, LogHists as Merge-compatible LogHistState.
// Restore() rebuilds a registry; Digest() is the one-word form
// replay verification compares.
type MetricsState struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]float64      `json:"gauges,omitempty"`
	LogHists map[string]LogHistState `json:"log_hists,omitempty"`
	// Wall lists metrics marked host-time-derived (Metrics.MarkWallClock),
	// sorted. Digest skips them: replay does not reproduce wall-clock
	// timings, so they carry across a restore but never gate one.
	Wall []string `json:"wall,omitempty"`
}

// State snapshots the registry.
func (m *Metrics) State() MetricsState {
	s := MetricsState{}
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for name, c := range m.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(m.gauges))
		for name, g := range m.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(m.lhists) > 0 {
		s.LogHists = make(map[string]LogHistState, len(m.lhists))
		for name, h := range m.lhists {
			s.LogHists[name] = h.State()
		}
	}
	if len(m.wall) > 0 {
		s.Wall = sortedKeys(m.wall)
	}
	return s
}

// Restore rebuilds the registry the state was captured from exactly.
func (s MetricsState) Restore() (*Metrics, error) {
	m := NewMetrics()
	for name, v := range s.Counters {
		m.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		m.Gauge(name).Set(v)
	}
	for name, hs := range s.LogHists {
		h, err := hs.Hist()
		if err != nil {
			return nil, fmt.Errorf("obs: metrics state %q: %w", name, err)
		}
		m.lhists[name] = h
	}
	m.MarkWallClock(s.Wall...)
	return m, nil
}

// Digest folds the replay-reproducible state into one comparable word,
// iterating every map in sorted key order. Metrics listed in Wall are
// skipped — they are host-time measurements replay cannot reproduce.
func (s MetricsState) Digest() uint64 {
	wall := make(map[string]bool, len(s.Wall))
	for _, n := range s.Wall {
		wall[n] = true
	}
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	ws := func(k string) {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	for _, k := range sortedKeys(s.Counters) {
		if wall[k] {
			continue
		}
		ws(k)
		w(uint64(s.Counters[k]))
	}
	for _, k := range sortedKeys(s.Gauges) {
		if wall[k] {
			continue
		}
		ws(k)
		w(math.Float64bits(s.Gauges[k]))
	}
	for _, k := range sortedKeys(s.LogHists) {
		ws(k)
		hs := s.LogHists[k]
		w(uint64(hs.N))
		w(uint64(hs.Sum))
		w(uint64(hs.Min))
		w(uint64(hs.Max))
		for _, bk := range hs.Buckets {
			w(uint64(bk[0]))
			w(uint64(bk[1]))
		}
	}
	return h.Sum64()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

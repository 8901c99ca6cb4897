package obs

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestLogHistStateRoundTrip asserts State→JSON→Hist reconstructs the exact
// histogram, including its Merge behaviour.
func TestLogHistStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h LogHist
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Intn(1 << 20)))
	}
	data, err := json.Marshal(h.State())
	if err != nil {
		t.Fatal(err)
	}
	var st LogHistState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	got, err := st.Hist()
	if err != nil {
		t.Fatal(err)
	}
	if *got != h {
		t.Fatal("round-tripped LogHist differs from the original")
	}

	// Merge-compatibility: snapshot + later recording == uninterrupted.
	var tail LogHist
	for i := 0; i < 500; i++ {
		v := int64(rng.Intn(1 << 12))
		h.Record(v)
		tail.Record(v)
	}
	got.Merge(&tail)
	if *got != h {
		t.Fatal("snapshot+merge differs from uninterrupted recording")
	}
}

func TestLogHistStateRejectsBadBucket(t *testing.T) {
	if _, err := (LogHistState{Buckets: [][2]int64{{int64(lhBuckets), 1}}}).Hist(); err == nil {
		t.Fatal("accepted out-of-range bucket index")
	}
}

// TestMetricsStateDigest asserts the digest is map-order independent,
// sensitive to every component, and survives a JSON round trip.
func TestMetricsStateDigest(t *testing.T) {
	build := func(extraSample int64) *Metrics {
		m := NewMetrics()
		m.Counter("a.count").Add(7)
		m.Counter("b.count").Add(9)
		m.Gauge("peak").Set(3.5)
		m.LogHist("lat").Record(140)
		m.LogHist("lat").Record(9000)
		if extraSample != 0 {
			m.LogHist("lat").Record(extraSample)
		}
		return m
	}
	a, b := build(0), build(0)
	if a.State().Digest() != b.State().Digest() {
		t.Fatal("digest differs across identical registries")
	}
	if a.State().Digest() == build(25).State().Digest() {
		t.Fatal("digest missed a histogram sample")
	}
	c := build(0)
	c.Counter("a.count").Inc()
	if a.State().Digest() == c.State().Digest() {
		t.Fatal("digest missed a counter change")
	}

	data, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st MetricsState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Digest() != a.State().Digest() {
		t.Fatal("digest changed across JSON round trip")
	}
}

// TestMetricsStateRestore asserts counters/gauges/loghists restore exactly
// and continue merging correctly.
func TestMetricsStateRestore(t *testing.T) {
	m := NewMetrics()
	m.Counter("n").Add(41)
	m.Gauge("g").Set(2.25)
	for v := int64(1); v < 300; v += 7 {
		m.LogHist("h").Record(v)
	}
	got, err := m.State().Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter("n").Value() != 41 || got.Gauge("g").Value() != 2.25 {
		t.Fatal("restored counter/gauge differ")
	}
	if *got.LogHist("h") != *m.LogHist("h") {
		t.Fatal("restored loghist differs")
	}
}

// TestMetricsStateWallClockExcluded asserts metrics marked wall-clock are
// carried in the state but never gate the digest.
func TestMetricsStateWallClockExcluded(t *testing.T) {
	build := func(ns int64) *Metrics {
		m := NewMetrics()
		m.Counter("events").Add(100)
		m.Counter("pass.ns").Add(ns)
		m.MarkWallClock("pass.ns")
		return m
	}
	a, b := build(1234), build(99999)
	if a.State().Digest() != b.State().Digest() {
		t.Fatal("wall-clock counter leaked into the digest")
	}
	a.Counter("events").Inc()
	if a.State().Digest() == b.State().Digest() {
		t.Fatal("digest missed a real counter change")
	}
	st := b.State()
	if len(st.Wall) != 1 || st.Wall[0] != "pass.ns" {
		t.Fatalf("Wall = %v", st.Wall)
	}
	got, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !got.WallClock("pass.ns") || got.Counter("pass.ns").Value() != 99999 {
		t.Fatal("wall-clock mark or value lost across restore")
	}
}

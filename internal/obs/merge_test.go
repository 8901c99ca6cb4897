package obs

import (
	"strings"
	"testing"
)

func TestShardFieldRoundTrip(t *testing.T) {
	r := Rec(42, KindTxStart)
	r.Node = 3
	r.Shard = 5
	line := string(AppendRecord(nil, r))
	if !strings.Contains(line, `"sh":5`) {
		t.Fatalf("shard id not encoded: %s", line)
	}
	var got Record
	if _, err := ParseNDJSON(strings.NewReader(line), func(rec Record) error {
		got = rec
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: got %+v, want %+v", got, r)
	}
	// Unsharded records must not grow a field (golden-trace compatibility).
	r.Shard = 0
	if line := string(AppendRecord(nil, r)); strings.Contains(line, `"sh"`) {
		t.Fatalf("sh emitted for unsharded record: %s", line)
	}
}

func TestSpansAtBase(t *testing.T) {
	s := NewSpansAt(1 << 40)
	if got := s.Next(); got != 1<<40+1 {
		t.Fatalf("first id = %d", got)
	}
	if got := s.Next(); got != 1<<40+2 {
		t.Fatalf("second id = %d", got)
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(2)
	b.Gauge("g").Set(5)
	a.LogHist("lh").Record(100)
	b.LogHist("lh").Record(300)

	a.Merge(b)
	if got := a.Counter("c").Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if got := a.Counter("only_b").Value(); got != 1 {
		t.Errorf("only_b = %d, want 1", got)
	}
	if got := a.Gauge("g").Value(); got != 5 {
		t.Errorf("gauge = %v, want max 5", got)
	}
	if got := a.LogHist("lh").N(); got != 2 {
		t.Errorf("loghist n = %d, want 2", got)
	}
	a.Merge(nil) // no-op
}

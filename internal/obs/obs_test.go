package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Count returns how many records of the given kind were emitted.
func (b *Buffer) Count(k Kind) int {
	n := 0
	for _, r := range b.recs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	recs := []Record{
		{At: 0, Kind: KindRunStart, Node: -1, Link: -1, Slot: -1, Value: 42, Aux: "domino"},
		{At: 1500, Kind: KindTxStart, Node: 0, Link: -1, Slot: -1, Dur: 224_000, Aux: "DATA"},
		{At: 225_500, Kind: KindSlotStart, Node: 3, Link: 2, Slot: 17, Aux: "fake"},
		{At: 300_000, Kind: KindROPPoll, Node: 5, Link: -1, Slot: -1, Value: 9, Extra: 2, OK: true},
		{At: 400_000, Kind: KindQueue, Node: -1, Link: 0, Slot: -1, Value: 128},
		{At: 500_000, Kind: KindDrop, Node: -1, Link: 1, Slot: -1, Aux: `needs "escaping"\n`},
	}
	var buf bytes.Buffer
	tr := NewNDJSON(&buf)
	for _, r := range recs {
		tr.Emit(r)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, err := ParseNDJSON(&buf, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("parsed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestNDJSONNodeZeroDistinctFromAbsent(t *testing.T) {
	a := AppendRecord(nil, Record{Kind: KindTxStart, Node: 0, Link: -1, Slot: -1})
	b := AppendRecord(nil, Record{Kind: KindTxStart, Node: -1, Link: -1, Slot: -1})
	if !strings.Contains(string(a), `"node":0`) {
		t.Fatalf("node 0 not encoded: %s", a)
	}
	if strings.Contains(string(b), "node") {
		t.Fatalf("absent node encoded: %s", b)
	}
}

func TestNDJSONBoundedBuffering(t *testing.T) {
	var buf bytes.Buffer
	tr := NewNDJSON(&buf)
	r := Rec(1, KindTxStart)
	r.Node = 1
	r.Aux = "DATA"
	line := len(AppendRecord(nil, r))
	n := ndjsonFlushAt/line + 2
	for i := 0; i < n; i++ {
		tr.Emit(r)
	}
	if buf.Len() == 0 {
		t.Fatal("buffer never flushed despite exceeding the bound")
	}
	if len(tr.buf) >= ndjsonFlushAt {
		t.Fatalf("in-memory buffer holds %d bytes, bound is %d", len(tr.buf), ndjsonFlushAt)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte{'\n'}); got != n {
		t.Fatalf("%d lines written, want %d", got, n)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter("z.count").Add(5)
	m.Counter("z.count").Inc() // same counter
	m.Gauge("a.gauge").Set(2)
	m.Gauge("a.gauge").SetMax(7)
	m.Gauge("a.gauge").SetMax(3) // no-op, below max
	h := m.LogHist("m.hist")
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	s := m.Snapshot()
	if len(s) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].Name >= s[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s[i-1].Name, s[i].Name)
		}
	}
	if mv, _ := s.Get("z.count"); mv.Value != 6 {
		t.Fatalf("counter = %v, want 6", mv.Value)
	}
	if mv, _ := s.Get("a.gauge"); mv.Value != 7 {
		t.Fatalf("gauge = %v, want 7 (SetMax)", mv.Value)
	}
	mv, ok := s.Get("m.hist")
	if !ok || mv.Value != 100 || mv.Max != 100 || mv.P50 < 49 || mv.P50 > 52 {
		t.Fatalf("histogram entry = %+v", mv)
	}
	var text strings.Builder
	s.WriteText(&text)
	if !strings.Contains(text.String(), "m.hist") {
		t.Fatalf("WriteText missing histogram:\n%s", text.String())
	}
}

// The segmentation invariant: buckets partition the timeline, so they sum
// exactly to the run duration whatever the overlap structure.
func TestAirtimeSegmentation(t *testing.T) {
	var a Airtime
	us := sim.Microsecond
	// 0-10 idle; 10-30 data alone; 30-40 data+ack overlap; 40-50 ack alone;
	// 50-60 idle; 60-70 signature; 70-100 idle.
	a.Start(BucketData, 10*us)
	a.Start(BucketAck, 30*us)
	a.End(BucketData, 40*us)
	a.End(BucketAck, 50*us)
	a.Start(BucketSig, 60*us)
	a.End(BucketSig, 70*us)
	b := a.Breakdown(100 * us)
	if b.Total != 100*us {
		t.Fatalf("total = %v, want 100µs", b.Total)
	}
	want := map[Bucket]sim.Time{
		BucketIdle:    50 * us,
		BucketData:    20 * us,
		BucketAck:     10 * us,
		BucketSig:     10 * us,
		BucketOverlap: 10 * us,
	}
	for bk, d := range want {
		if b.Of(bk) != d {
			t.Errorf("%v = %v, want %v", bk, b.Of(bk), d)
		}
	}
	var sum sim.Time
	for bk := BucketIdle; bk < NumBuckets; bk++ {
		sum += b.Of(bk)
	}
	if sum != b.Total {
		t.Fatalf("buckets sum to %v, total says %v", sum, b.Total)
	}
}

// Two same-kind frames overlapping classify as overlap, not double-counted.
func TestAirtimeSameKindOverlap(t *testing.T) {
	var a Airtime
	us := sim.Microsecond
	a.Start(BucketData, 0)
	a.Start(BucketData, 5*us)
	a.End(BucketData, 10*us)
	a.End(BucketData, 15*us)
	b := a.Breakdown(20 * us)
	if b.Of(BucketOverlap) != 5*us || b.Of(BucketData) != 10*us || b.Of(BucketIdle) != 5*us {
		t.Fatalf("breakdown = %+v", b)
	}
	if b.Total != 20*us {
		t.Fatalf("total = %v", b.Total)
	}
}

func TestBucketOfCoversAllFrameKinds(t *testing.T) {
	kinds := []phy.FrameKind{phy.Data, phy.Ack, phy.Poll, phy.Report, phy.Signature, phy.FakeHeader}
	for _, k := range kinds {
		b := BucketOf(k)
		if b == BucketIdle || b == BucketOverlap {
			t.Fatalf("BucketOf(%v) = %v", k, b)
		}
		if got := BucketOfName(k.String()); got != b {
			t.Fatalf("BucketOfName(%q) = %v, want %v", k.String(), got, b)
		}
	}
}

func TestRunProbeAndFinish(t *testing.T) {
	var buf Buffer
	m := NewMetrics()
	r := NewRun(&buf, m)
	us := sim.Microsecond
	data := &phy.Frame{Kind: phy.Data, Src: 0, Dst: 1}
	r.TxStart(data, 0)
	r.TxEnd(data, 100*us)
	r.RxOutcome(data, 1, false, 100*us) // addressed failure: a collision
	r.RxOutcome(data, 2, false, 100*us) // bystander failure: not a collision
	sig := &phy.Frame{Kind: phy.Signature, Src: 0, Dst: phy.Broadcast}
	r.RxOutcome(sig, 1, false, 100*us) // signature miss: engine's concern
	b := r.Finish(200 * us)
	if b.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", b.Collisions)
	}
	if b.Of(BucketData) != 100*us || b.Of(BucketIdle) != 100*us || b.Total != 200*us {
		t.Fatalf("breakdown = %+v", b)
	}
	if buf.Count(KindTxStart) != 1 || buf.Count(KindCollision) != 1 || buf.Count(KindRunEnd) != 1 {
		t.Fatalf("record counts: tx=%d coll=%d end=%d",
			buf.Count(KindTxStart), buf.Count(KindCollision), buf.Count(KindRunEnd))
	}
	snap := m.Snapshot()
	if mv, _ := snap.Get("phy.collisions"); mv.Value != 1 {
		t.Fatalf("phy.collisions = %v", mv.Value)
	}
	if mv, _ := snap.Get("phy.tx.data"); mv.Value != 1 {
		t.Fatalf("phy.tx.data = %v", mv.Value)
	}
	if mv, _ := snap.Get("airtime.idle_frac"); mv.Value != 0.5 {
		t.Fatalf("airtime.idle_frac = %v", mv.Value)
	}
}

func TestRunMacEventsAndQueueSampler(t *testing.T) {
	var buf Buffer
	m := NewMetrics()
	clock := sim.Time(0)
	link := &topo.Link{ID: 3}
	r := NewRun(&buf, m).BindClock(func() sim.Time { return clock }).
		BindLinks([]*topo.Link{{ID: 0}, {ID: 1}, {ID: 2}, link})
	p := &mac.Packet{Link: int32(link.ID), Enqueued: 0}
	clock = 500 * sim.Microsecond
	r.Delivered(p, clock)
	r.Dropped(p, clock)
	sampler := r.QueueSampler()
	for d := 1; d <= 70; d++ {
		sampler(3, d)
	}
	snap := m.Snapshot()
	if mv, _ := snap.Get("mac.delivered"); mv.Value != 1 {
		t.Fatalf("mac.delivered = %v", mv.Value)
	}
	if mv, _ := snap.Get("mac.queue_max"); mv.Value != 70 {
		t.Fatalf("mac.queue_max = %v", mv.Value)
	}
	if mv, _ := snap.Get("mac.delay_us"); mv.Value != 1 || mv.Max != 500 {
		t.Fatalf("mac.delay_us = %+v", mv)
	}
	// 70 samples on one link, decimated every 64: samples 0 and 64 emit.
	if got := buf.Count(KindQueue); got != 2 {
		t.Fatalf("queue samples = %d, want 2", got)
	}
	if buf.Count(KindDrop) != 1 {
		t.Fatalf("drop records = %d, want 1", buf.Count(KindDrop))
	}
	for _, rec := range buf.Records() {
		if rec.Kind == KindQueue && rec.At == 0 {
			t.Fatalf("queue sample missing timestamp: %+v", rec)
		}
	}
}

func TestRunKernelHook(t *testing.T) {
	var buf Buffer
	m := NewMetrics()
	r := NewRun(&buf, m)
	hook := r.KernelHook()
	for i := uint64(1); i <= 3*kernelSampleEvery; i++ {
		src := sim.SrcMAC
		if i%2 == 0 {
			src = sim.SrcPHY
		}
		hook(sim.EventInfo{Now: sim.Time(i), Fired: i, Pending: int(i % 7), Source: src})
	}
	r.Finish(sim.Time(3 * kernelSampleEvery))
	if got := buf.Count(KindKernel); got != 3 {
		t.Fatalf("kernel samples = %d, want 3", got)
	}
	snap := m.Snapshot()
	if mv, _ := snap.Get("kernel.fired.mac"); mv.Value != 3*kernelSampleEvery/2 {
		t.Fatalf("kernel.fired.mac = %v", mv.Value)
	}
	if mv, _ := snap.Get("kernel.fired.phy"); mv.Value != 3*kernelSampleEvery/2 {
		t.Fatalf("kernel.fired.phy = %v", mv.Value)
	}
}

// A Run with neither tracer nor metrics must still keep the airtime
// breakdown correct (core uses it when only -trace XOR -metrics is set, and
// the probe is only installed when observability is on at all).
func TestRunNilTracerNilMetrics(t *testing.T) {
	r := NewRun(nil, nil)
	f := &phy.Frame{Kind: phy.Ack, Src: 0, Dst: 1}
	r.TxStart(f, 0)
	r.TxEnd(f, 10*sim.Microsecond)
	r.Delivered(&mac.Packet{}, 0)
	r.KernelHook()(sim.EventInfo{Fired: kernelSampleEvery})
	r.QueueSampler()(0, 5)
	b := r.Finish(20 * sim.Microsecond)
	if b.Of(BucketAck) != 10*sim.Microsecond || b.Total != 20*sim.Microsecond {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), "/gc/") {
		t.Fatalf("runtime metrics dump missing GC stats:\n%.300s", body)
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp2.StatusCode)
	}
}

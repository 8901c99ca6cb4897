package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

// poisoner is the last sink on a run's hub. Once every other sink has heard
// of a packet, it overwrites the storage the *mac.Packet named; a sink that
// kept the pointer and read it later would then see garbage.
type poisoner struct{ delivered, dropped int }

var poison = mac.Packet{
	Enqueued: -1 << 40, Dequeued: -1 << 40, Span: -7, TxSpan: -7,
	Link: -1, Bytes: -1, Seq: ^uint32(0), AckSeq: ^uint32(0), FlowID: -3,
	Handle: ^uint32(0), Retries: 255, TCPAck: true,
}

func (p *poisoner) Delivered(pkt *mac.Packet, _ sim.Time) { p.delivered++; *pkt = poison }
func (p *poisoner) Dropped(pkt *mac.Packet, _ sim.Time)   { p.dropped++; *pkt = poison }

// TestSinksKeepNoPacketPointer pins the mac.Events contract that lets
// engines hand sinks their own reused storage: the *Packet is valid only
// during the call. Every registered scheme runs overloaded UDP and TCP
// (small queues, so both tail drops and retry-limit drops occur) once
// plainly and once with a poisoner after every sink; the trace, the metrics
// and the Result must be identical.
func TestSinksKeepNoPacketPointer(t *testing.T) {
	for _, name := range scheme.Registry.Names() {
		for _, kind := range []string{"udp", "tcp"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				sp := spec.Spec{
					Scheme:       name,
					Topology:     spec.Topology{Kind: "fig7"},
					Seed:         3,
					Duration:     spec.Duration(300 * sim.Millisecond),
					Warmup:       spec.Duration(50 * sim.Millisecond),
					Traffic:      spec.Traffic{Kind: kind, DownMbps: 10, UpMbps: 10},
					SchemeConfig: json.RawMessage(`{"QueueCap": 16}`),
					Obs:          spec.Obs{Metrics: true},
				}
				run := func(poisoned bool) (*bytes.Buffer, Result, *poisoner) {
					sc, err := BuildScenario(sp)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					nd := obs.NewNDJSON(&buf)
					sc.Tracer = nd
					inst, err := NewInstance(sc)
					if err != nil {
						t.Fatal(err)
					}
					p := &poisoner{}
					if poisoned {
						inst.hub.Add(p)
					}
					inst.Step(inst.S.Duration)
					res := inst.Finish()
					if err := nd.Flush(); err != nil {
						t.Fatal(err)
					}
					return &buf, res, p
				}
				refBuf, ref, _ := run(false)
				gotBuf, got, p := run(true)
				if p.delivered == 0 || p.dropped == 0 {
					t.Fatalf("poisoned %d deliveries and %d drops; the run must reach both", p.delivered, p.dropped)
				}
				if refBuf.Len() == 0 {
					t.Fatal("the run wrote no trace")
				}
				if !bytes.Equal(gotBuf.Bytes(), refBuf.Bytes()) {
					t.Errorf("poisoned run's trace differs (%d vs %d bytes)", gotBuf.Len(), refBuf.Len())
				}
				if !reflect.DeepEqual(got.Snapshot, ref.Snapshot) {
					t.Error("poisoned run's metrics differ")
				}
				if got.AggregateMbps != ref.AggregateMbps || got.MeanDelay != ref.MeanDelay ||
					!reflect.DeepEqual(got.PerLinkMbps, ref.PerLinkMbps) {
					t.Errorf("poisoned run's result differs: %v Mbps, delay %v vs %v Mbps, delay %v",
						got.AggregateMbps, got.MeanDelay, ref.AggregateMbps, ref.MeanDelay)
				}
			})
		}
	}
}

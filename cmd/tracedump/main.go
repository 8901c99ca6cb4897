// Command tracedump summarizes NDJSON observability traces written by
// domino-sim -tracefile or experiments -trace: per-run record totals, the
// airtime budget replayed from tx_start/tx_end records (the buckets partition
// the run duration exactly), causal-span coverage and trigger chains, the
// histogram summaries of metric records, and a slot-chain timeline
// reconstructed from the slot_start/trigger/slot_end records of DOMINO runs.
// Records of a kind this build does not know (a newer trace format) are
// counted and reported, not fatal.
//
// Usage:
//
//	domino-sim -topo fig7 -scheme domino -tracefile run.ndjson
//	tracedump run.ndjson
//	tracedump -slots 12 run.ndjson       # show the first 12 slots' timeline
//	tracedump < run.ndjson               # reads stdin without an argument
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// run accumulates one run_start..run_end span of the trace.
type run struct {
	scheme string
	seed   int64
	end    sim.Time
	closed bool

	counts [24]int // indexed by obs.Kind; sized past numKinds
	air    obs.Airtime
	lastTx sim.Time

	collisions   int64
	triggerMiss  int
	slotEvents   []obs.Record // slot_start / trigger / slot_end, in order
	queueMax     int64
	kernelDepth  int64 // max pending seen in kernel samples
	kernelEvents int64 // total fired, from the last kernel sample
	spanned      int   // records carrying a span or parent annotation
	metrics      []obs.Record

	// chains rebuilds the causal span forest (sp/pa annotations).
	chains *chainAnalyzer
}

func main() {
	slots := flag.Int("slots", 20, "slot-timeline entries to print per DOMINO run (0 disables)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}
	if err := dump(os.Stdout, in, *slots); err != nil {
		fmt.Fprintf(os.Stderr, "tracedump: %s: %v\n", name, err)
		os.Exit(1)
	}
}

// dump reads one NDJSON trace from in and writes the per-run summaries to w.
// Malformed input or a trace with no records is an error.
func dump(w io.Writer, in io.Reader, slots int) error {
	var runs []*run
	var cur *run
	unknown, err := obs.ParseNDJSON(in, func(r obs.Record) error {
		if r.Kind == obs.KindRunStart {
			cur = &run{scheme: r.Aux, seed: r.Value}
			runs = append(runs, cur)
			return nil
		}
		if cur == nil {
			// Headerless stream (e.g. a filtered fragment): collect anyway.
			cur = &run{scheme: "?"}
			runs = append(runs, cur)
		}
		cur.observe(r)
		if r.Kind == obs.KindRunEnd {
			cur.end = r.At
			cur.collisions = r.Value
			cur.closed = true
			cur = nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("no records")
	}
	for i, r := range runs {
		r.print(w, i, slots)
	}
	if unknown > 0 {
		fmt.Fprintf(w, "unrecognized records: %d (kinds this build does not know; skipped)\n", unknown)
	}
	return nil
}

func (r *run) observe(rec obs.Record) {
	if int(rec.Kind) < len(r.counts) {
		r.counts[rec.Kind]++
	}
	if r.chains == nil {
		r.chains = newChainAnalyzer()
	}
	r.chains.Observe(rec)
	if rec.Span != 0 || rec.Parent != 0 {
		r.spanned++
	}
	switch rec.Kind {
	case obs.KindTxStart:
		r.air.Start(obs.BucketOfName(rec.Aux), rec.At)
		r.lastTx = rec.At
	case obs.KindTxEnd:
		r.air.End(obs.BucketOfName(rec.Aux), rec.At)
		r.lastTx = rec.At
	case obs.KindSlotStart, obs.KindSlotEnd, obs.KindTrigger:
		r.slotEvents = append(r.slotEvents, rec)
	case obs.KindTriggerMiss:
		r.triggerMiss++
	case obs.KindQueue:
		if rec.Value > r.queueMax {
			r.queueMax = rec.Value
		}
	case obs.KindKernel:
		if rec.Value > r.kernelDepth {
			r.kernelDepth = rec.Value
		}
		if rec.Extra > r.kernelEvents {
			r.kernelEvents = rec.Extra
		}
	case obs.KindMetric:
		r.metrics = append(r.metrics, rec)
	}
}

func (r *run) print(w io.Writer, idx, slots int) {
	end := r.end
	if !r.closed {
		end = r.lastTx // truncated trace: close the budget at the last activity
	}
	fmt.Fprintf(w, "== run %d: scheme=%s seed=%d duration=%v%s\n",
		idx, r.scheme, r.seed, end, map[bool]string{false: " (truncated)", true: ""}[r.closed])

	total := 0
	type kc struct {
		k obs.Kind
		n int
	}
	var kcs []kc
	for k, n := range r.counts {
		if n > 0 {
			kcs = append(kcs, kc{obs.Kind(k), n})
			total += n
		}
	}
	sort.Slice(kcs, func(a, b int) bool { return kcs[a].n > kcs[b].n })
	fmt.Fprintf(w, "records: %d (", total)
	for i, e := range kcs {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%s=%d", e.k, e.n)
	}
	fmt.Fprintln(w, ")")

	bd := r.air.Breakdown(end)
	bd.Collisions = r.collisions
	fmt.Fprintln(w, "airtime budget:")
	bd.WriteText(w)
	if r.triggerMiss > 0 {
		fmt.Fprintf(w, "trigger misses: %d\n", r.triggerMiss)
	}
	if r.queueMax > 0 {
		fmt.Fprintf(w, "max queue depth sampled: %d\n", r.queueMax)
	}
	if r.kernelEvents > 0 {
		fmt.Fprintf(w, "kernel: %d events fired, max %d pending at samples\n",
			r.kernelEvents, r.kernelDepth)
	}

	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-24s n=%-8d p99=%d\n", m.Aux, m.Value, m.Extra)
	}
	if r.spanned > 0 {
		fmt.Fprintf(w, "causal spans: %d of %d records annotated\n", r.spanned, total)
	}
	if r.chains != nil {
		r.chains.Report().write(w, 8)
	}

	if slots > 0 && len(r.slotEvents) > 0 {
		fmt.Fprintf(w, "slot timeline (first %d slots):\n", slots)
		r.printTimeline(w, slots)
	}
	fmt.Fprintln(w)
}

// printTimeline renders the slot chain: for each slot index in order of first
// appearance, the triggers that referenced it, the transmissions that started
// it and the boundary broadcast that closed it.
func (r *run) printTimeline(w io.Writer, max int) {
	printed := map[int]bool{}
	n := 0
	for _, ev := range r.slotEvents {
		if ev.Slot < 0 || printed[ev.Slot] {
			continue
		}
		printed[ev.Slot] = true
		if n++; n > max {
			break
		}
		fmt.Fprintf(w, "  slot %-4d", ev.Slot)
		col := 0
		for _, e := range r.slotEvents {
			if e.Slot != ev.Slot {
				continue
			}
			if col++; col > 6 {
				fmt.Fprint(w, " …")
				break
			}
			switch e.Kind {
			case obs.KindTrigger:
				fmt.Fprintf(w, "  trig@%v n%d", e.At, e.Node)
			case obs.KindSlotStart:
				fmt.Fprintf(w, "  %s@%v n%d", e.Aux, e.At, e.Node)
			case obs.KindSlotEnd:
				fmt.Fprintf(w, "  bcast@%v n%d", e.At, e.Node)
			}
		}
		fmt.Fprintln(w)
	}
}

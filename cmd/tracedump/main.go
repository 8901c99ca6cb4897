// Command tracedump summarizes NDJSON observability traces written by
// domino-sim -tracefile or experiments -trace: per-run record totals, the
// airtime budget replayed from tx_start/tx_end records (the buckets partition
// the run duration exactly), and a slot-chain timeline reconstructed from the
// slot_start/trigger/slot_end records of DOMINO runs.
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

	// Schedule-conversion counters, from KindConvert records (present when
	// the run had domino's ConvertTrace on).
	convBatches, convSlots         int64
	convReal, convFake             int64
	convTriggers, convBackup       int64
	convBoundary, convUntriggered  int64
	convROPSlots, convPollTriggers int64
	convInbound, convCombined      map[int64]int64

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

	var runs []*run
	var cur *run
	err := obs.ParseNDJSON(in, func(r obs.Record) error {
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
		fmt.Fprintf(os.Stderr, "tracedump: %s: %v\n", name, err)
		os.Exit(1)
	}
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "tracedump: %s: no records\n", name)
		os.Exit(1)
	}

	for i, r := range runs {
		r.print(os.Stdout, i, *slots)
	}
}

func (r *run) observe(rec obs.Record) {
	if int(rec.Kind) < len(r.counts) {
		r.counts[rec.Kind]++
	}
	if r.chains == nil {
		r.chains = newChainAnalyzer()
	}
	r.chains.Observe(rec)
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
	case obs.KindConvert:
		r.observeConvert(rec)
	}
}

// observeConvert accumulates one per-batch conversion counter (see
// domino.Config.ConvertTrace for the record layout).
func (r *run) observeConvert(rec obs.Record) {
	switch rec.Aux {
	case "fake_link_insert":
		r.convReal += rec.Value
		r.convFake += rec.Extra
	case "trigger_assign":
		r.convTriggers += rec.Value
		r.convBackup += rec.Extra
	case "batch_connect":
		r.convBoundary += rec.Value
		r.convUntriggered += rec.Extra
	case "rop_insert":
		r.convROPSlots += rec.Value
		r.convPollTriggers += rec.Extra
	case "batch":
		r.convBatches++
		r.convSlots += rec.Value
	case "inbound":
		if r.convInbound == nil {
			r.convInbound = map[int64]int64{}
		}
		r.convInbound[rec.Value] += rec.Extra
	case "combined":
		if r.convCombined == nil {
			r.convCombined = map[int64]int64{}
		}
		r.convCombined[rec.Value] += rec.Extra
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

	r.printConvert(w)

	if r.chains != nil {
		r.chains.Report().write(w, 8)
	}

	if slots > 0 && len(r.slotEvents) > 0 {
		fmt.Fprintf(w, "slot timeline (first %d slots):\n", slots)
		r.printTimeline(w, slots)
	}
	fmt.Fprintln(w)
}

// printConvert renders the trigger-chain summary built from the per-batch
// conversion records (domino-sim -convert-trace).
func (r *run) printConvert(w io.Writer) {
	if r.convBatches == 0 {
		return
	}
	fmt.Fprintf(w, "schedule conversion: %d batches, %d slots\n", r.convBatches, r.convSlots)
	triggers := r.convTriggers + r.convBoundary
	if r.convSlots > 0 {
		fmt.Fprintf(w, "  triggers: %d (%.2f per slot; %d backup, %d across batch boundaries, %d entries untriggered)\n",
			triggers, float64(triggers)/float64(r.convSlots),
			r.convBackup, r.convBoundary, r.convUntriggered)
	}
	if entries := r.convReal + r.convFake; entries > 0 {
		fmt.Fprintf(w, "  entries: %d (%.0f%% fake-link cover)\n",
			entries, 100*float64(r.convFake)/float64(entries))
	}
	if r.convROPSlots > 0 {
		fmt.Fprintf(w, "  rop: %d polling slots, %d poll triggers planted\n",
			r.convROPSlots, r.convPollTriggers)
	}
	histogram := func(name string, m map[int64]int64, note func(int64) string) {
		if len(m) == 0 {
			return
		}
		keys := make([]int64, 0, len(m))
		total := int64(0)
		for k, n := range m {
			keys = append(keys, k)
			total += n
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		fmt.Fprintf(w, "  %s:", name)
		for _, k := range keys {
			fmt.Fprintf(w, "  %d→%d (%.0f%%)%s", k, m[k], 100*float64(m[k])/float64(total), note(k))
		}
		fmt.Fprintln(w)
	}
	histogram("triggers per entry", r.convInbound, func(int64) string { return "" })
	histogram("combined signatures per broadcast", r.convCombined, func(k int64) string {
		if k > 4 {
			return " OVER LIMIT"
		}
		return ""
	})
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

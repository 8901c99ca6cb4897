// Command domino-sim runs one channel-access simulation and reports
// throughput, delay and fairness. Scenarios come either from flags or from a
// declarative spec file (see internal/spec and examples/specs).
//
// Topologies:
//
//	-topo fig1|fig7|fig13a|fig13b        the paper's drawn networks
//	-topo sc|ht|et                       two AP-client pairs (Table 2 placements)
//	-topo campus -aps 10 -clients 2      T(m,n) from the synthetic campus trace
//	-topo random -aps 20 -clients 3      T(m,n) from a random 800×800 m placement
//
// Examples:
//
//	domino-sim -topo fig1 -scheme domino -traffic saturated -duration 10s
//	domino-sim -topo campus -aps 10 -clients 2 -scheme dcf -down 10 -up 4
//	domino-sim -topo ht -scheme domino -tracefile - | tracedump -slots 20
//	domino-sim -topo random -reps 16 -workers 0    # 16 seeds across all cores
//	domino-sim -spec examples/specs/fig1-domino.json
//	domino-sim -topo fig7 -duration 60s -pprof localhost:6060   # profile a long run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	var (
		specFile  = flag.String("spec", "", "run the declarative scenario in this JSON spec file (topology/scheme/traffic flags are ignored; -tracefile/-metrics still apply)")
		topoFlag  = flag.String("topo", "fig1", strings.Join(spec.Kinds(), "|"))
		aps       = flag.Int("aps", 10, "APs for campus/random topologies (per building for grid)")
		clients   = flag.Int("clients", 2, "clients per AP for campus/random/grid topologies")
		buildings = flag.Int("buildings", 0, "building count for the grid topology (0 = default 4)")
		shards    = flag.Int("shards", 0, "run sharded by interference domain on this many workers (0 = single engine; output is identical at any shard count)")
		schemeFl  = flag.String("scheme", "domino", "registered scheme: "+strings.Join(scheme.Registry.Names(), "|"))
		traffic   = flag.String("traffic", "saturated", "saturated|udp|tcp")
		downMbps  = flag.Float64("down", 10, "downlink offered Mbps per link (udp/tcp)")
		upMbps    = flag.Float64("up", 10, "uplink offered Mbps per link (udp/tcp)")
		duration  = flag.Duration("duration", 5*time.Second, "simulated time")
		warmup    = flag.Duration("warmup", 500*time.Millisecond, "statistics warm-up")
		seed      = flag.Int64("seed", 1, "random seed")
		reps      = flag.Int("reps", 1, "independent repetitions at derived seeds (seed + i*101)")
		workers   = flag.Int("workers", 0, "worker pool size for -reps (0 = all cores)")
		noDown    = flag.Bool("nodownlink", false, "omit downlink links")
		noUp      = flag.Bool("nouplink", false, "omit uplink links")
		schedFl   = flag.String("scheduler", "", "DOMINO strict scheduling policy by name (see internal/strict registry; a spec's scheme_config.scheduler wins)")
		pollerFl  = flag.String("poller", "", "DOMINO polling scheme by name (see internal/poll registry: ROP, A2P, UORA; a spec's scheme_config.poller wins)")
		traceFile = flag.String("tracefile", "", "write the NDJSON observability trace to this file (- for stdout, which moves the report to stderr; overrides the spec's obs.trace_file)")
		metrics   = flag.Bool("metrics", false, "collect and print run metrics (counters, airtime breakdown)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and runtime metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := obs.ServeDebug(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/  runtime: http://%s/debug/runtime\n", addr, addr)
	}

	var sp spec.Spec
	if *specFile != "" {
		var err error
		sp, err = spec.Load(*specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "domino-sim: %v\n", err)
			os.Exit(2)
		}
	} else {
		t := spec.Topology{Kind: *topoFlag}
		if t.Kind == "campus" || t.Kind == "random" || t.Kind == "grid" {
			t.APs, t.Clients = *aps, *clients
		}
		if t.Kind == "grid" {
			t.Buildings = *buildings
		}
		downOn, upOn := !*noDown, !*noUp
		sp = spec.Spec{
			Scheme:   *schemeFl,
			Topology: t,
			Downlink: &downOn,
			Uplink:   &upOn,
			Seed:     *seed,
			Duration: spec.Duration(duration.Nanoseconds()),
			Warmup:   spec.Duration(warmup.Nanoseconds()),
			Traffic:  spec.Traffic{Kind: *traffic, DownMbps: *downMbps, UpMbps: *upMbps},
		}
	}
	// The DOMINO flags join the spec's scheme_config, where a key the spec
	// sets wins, so they reach every run (-reps included) by the one path.
	for key, v := range map[string]string{"Scheduler": *schedFl, "Poller": *pollerFl} {
		if v != "" {
			sp.SchemeConfig = withKnob(sp.SchemeConfig, key, v)
		}
	}
	if err := sp.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "domino-sim: %v\n", err)
		os.Exit(2)
	}
	d, _ := scheme.Registry.Lookup(sp.Scheme) // Validate guarantees the lookup

	// The -shards flag overrides the spec's shards knob; either selects the
	// interference-domain sharded runner (internal/shard).
	shardWorkers := sp.ShardWorkers()
	if *shards > 0 {
		shardWorkers = *shards
	}

	if *reps > 1 {
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "-tracefile is ignored with -reps > 1 (interleaved output)")
		}
		if shardWorkers > 0 {
			fmt.Fprintln(os.Stderr, "-shards is ignored with -reps > 1 (repetitions already fan out across workers)")
		}
		runReps(sp, d.Name, *reps, *workers)
		return
	}

	sc, err := core.BuildScenario(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "domino-sim: %v\n", err)
		os.Exit(2)
	}
	tf := sp.Obs.TraceFile
	if *traceFile != "" {
		tf = *traceFile
	}
	var ndjson *obs.NDJSON
	if tf != "" {
		w := os.Stdout
		if tf != "-" {
			f, err := os.Create(tf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		ndjson = obs.NewNDJSON(w)
		sc.Tracer = ndjson
	}
	if *metrics && sc.Metrics == nil {
		sc.Metrics = obs.NewMetrics()
	}

	var res core.Result
	var shardRep *shard.Report
	if shardWorkers > 0 {
		res, shardRep, err = shard.Run(sc, shard.Options{Workers: shardWorkers})
	} else {
		res, err = core.RunScenario(sc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "domino-sim: %v\n", err)
		os.Exit(1)
	}

	if ndjson != nil {
		if err := ndjson.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "trace write: %v\n", err)
			os.Exit(1)
		}
	}

	// With the trace on stdout (-tracefile -), the report goes to stderr so
	// the trace pipes cleanly into tracedump.
	out := os.Stdout
	if tf == "-" {
		out = os.Stderr
	}
	fmt.Fprintf(out, "scheme=%s topo=%s traffic=%s duration=%v seed=%d\n",
		d.Name, sp.Topology.Kind, sp.TrafficKind(), sc.Duration, sp.Seed)
	if shardRep != nil {
		st := shardRep.Partition.Stats
		fmt.Fprintf(out, "shard: domains=%d workers=%d cutEdges=%d crossLinkPairs=%d\n",
			st.Domains, shardRep.Workers, st.CutEdges, st.CrossLinkPairs)
	}
	fmt.Fprintf(out, "aggregate: %.2f Mbps   mean delay: %v   Jain fairness: %.3f\n",
		res.AggregateMbps, res.MeanDelay, res.Fairness)
	fmt.Fprintln(out, "per-link throughput (Mbps):")
	for _, l := range res.Links {
		fmt.Fprintf(out, "  %-12s %8.3f\n", l, res.PerLinkMbps[l.ID])
	}
	for _, l := range res.SkippedLinks {
		fmt.Fprintf(out, "  %-12s (skipped: zero offered rate)\n", l)
	}
	if len(res.UnpolledClients) > 0 {
		fmt.Fprintf(out, "unpolled clients (over the poller's per-AP limit; never polled): %v\n",
			res.UnpolledClients)
	}
	if d := res.Domino; d != nil {
		fmt.Fprintf(out, "domino: slots=%d data=%d fake=%d polls=%d ackMisses=%d selfStarts=%d drops=%d\n",
			d.Slots(), d.DataSends, d.FakeSends, d.Polls, d.AckMisses, d.SelfStarts, d.Drops)
		if d.PollRounds > 0 && (d.PollCollisions > 0 || d.PollRounds > d.Polls) {
			fmt.Fprintf(out, "domino: pollRounds=%d collisions=%d decoded=%d failed=%d\n",
				d.PollRounds, d.PollCollisions, d.PollDecoded, d.PollFailed)
		}
	}
	if d := res.Dcf; d != nil {
		fmt.Fprintf(out, "dcf: ackTimeouts=%d drops=%d\n", d.AckTimeouts, d.Drops)
	}
	if c := res.Centaur; c != nil {
		fmt.Fprintf(out, "centaur: epochs=%d ackTimeouts=%d drops=%d\n", c.Epochs, c.AckTimeouts, c.Drops)
	}
	if o := res.Omni; o != nil {
		fmt.Fprintf(out, "omniscient: slots=%d failures=%d\n", o.Slots, o.Failures)
	}
	if res.Breakdown != nil {
		fmt.Fprintln(out, "airtime breakdown:")
		res.Breakdown.WriteText(out)
	}
	if res.Snapshot != nil {
		fmt.Fprintln(out, "metrics:")
		res.Snapshot.WriteText(out)
	}
}

// withKnob returns raw, a scheme_config object, with key set to v unless raw
// already names key (case-insensitively, as registry.Overlay matches keys).
// Raw that is not an object is returned as it is, for Validate to reject.
func withKnob(raw json.RawMessage, key, v string) json.RawMessage {
	var obj map[string]json.RawMessage
	if len(raw) > 0 && json.Unmarshal(raw, &obj) != nil {
		return raw
	}
	for k := range obj {
		if strings.EqualFold(k, key) {
			return raw
		}
	}
	if obj == nil {
		obj = map[string]json.RawMessage{}
	}
	obj[key], _ = json.Marshal(v) // a string always marshals
	out, _ := json.Marshal(obj)   // as do raw values that just unmarshalled
	return out
}

// runReps fans `reps` independent repetitions of the spec across the worker
// pool. Repetition i rebuilds its topology and runs at seed seed + i*101, so
// the numbers are identical at any -workers value.
func runReps(sp spec.Spec, schemeName string, reps, workers int) {
	type rep struct {
		seed int64
		agg  float64
		err  error
	}
	results := parallel.Map(workers, reps, func(i int) rep {
		repSeed := parallel.Seed(sp.Seed, i, parallel.DefaultStride)
		s := sp // Spec is a value; each rep gets its own copy
		s.Seed = repSeed
		s.Topology.Seed = nil // regenerate the topology at the rep seed
		r, err := core.RunE(s)
		if err != nil {
			return rep{seed: repSeed, err: err}
		}
		return rep{seed: repSeed, agg: r.AggregateMbps}
	})

	fmt.Printf("scheme=%s topo=%s traffic=%s duration=%v reps=%d workers=%d\n",
		schemeName, sp.Topology.Kind, sp.TrafficKind(), sp.Duration.Time(), reps, parallel.Workers(workers))
	agg := &stats.CDF{}
	failed := 0
	for i, r := range results {
		if r.err != nil {
			failed++
			fmt.Printf("  rep %-3d seed %-6d infeasible: %v\n", i, r.seed, r.err)
			continue
		}
		agg.Add(r.agg)
		fmt.Printf("  rep %-3d seed %-6d aggregate %8.2f Mbps\n", i, r.seed, r.agg)
	}
	if agg.N() == 0 {
		fmt.Println("no feasible repetitions")
		os.Exit(1)
	}
	fmt.Printf("aggregate Mbps over %d reps: min %.2f  p50 %.2f  max %.2f\n",
		agg.N(), agg.Quantile(0), agg.Quantile(0.5), agg.Quantile(1))
	if failed > 0 {
		fmt.Printf("(%d infeasible repetitions skipped)\n", failed)
	}
}

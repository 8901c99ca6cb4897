// Command bench is the repository's end-to-end benchmark. It runs named
// workloads of the DOMINO simulator through the public API (core.NewInstance,
// shard.New and the topo builders), checks the simulated outputs, and prints
// the metrics BENCHMARK.json declares, each with its unit.
//
// One invocation measures one workload:
//
//	bench -workload fig14-udp -seed 1 -seconds 10 -trace 0
//
// prints a table and, as the last line of standard output, a JSON object
// {"correct", "attempted", "failed", "metrics"}. -trace 0 reports the
// end-to-end metrics; -trace 1 reruns the workload under a CPU profile and
// reports the per-layer metrics.
//
// Without -workload it runs every workload -reps times, one child process at
// a time and round-robin across workloads, then once traced, and writes the
// records to -out. -compare parent.json change.json [...] compares such
// files, alternating parent and change. Run it from the repository root
// (bench/run.sh builds it and does so).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

// pinnedJSON maps a seed to each workload's full-scale sim_digest, as the
// simulator computed them when the benchmark was defined.
//
//go:embed pinned.json
var pinnedJSON []byte

func pinnedDigest(seed int64, workload string) (string, bool) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		panic(fmt.Sprintf("pinned.json: %v", err)) // embedded at build time
	}
	d, ok := pins[strconv.FormatInt(seed, 10)][workload]
	return d, ok
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every single-workload invocation prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// invocation is one single-workload measurement.
type invocation struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    scale
	outDir   string
}

// minRounds is the fewest rounds an untraced invocation measures, so every
// reported median rests on at least three samples.
const minRounds = 3

// measure runs one invocation. A non-nil error means the workload could not
// be set up and no result exists; a failed run instead yields a result
// with Correct false.
func measure(inv invocation, spec *benchSpec) (result, string, error) {
	w, err := newWorkload(inv.workload, inv.seed, inv.scale)
	if err != nil {
		return result{}, "", err
	}
	// A workload gets one core per simulation goroutine, so the garbage
	// collector competes with the simulation instead of hiding on an idle
	// core whose availability changes with the host's other tenants.
	procs := w.procs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res := result{Correct: true}
	values := map[string]float64{}
	var digest string
	var runErr error
	if inv.trace {
		var tr tracedResult
		tr, runErr = traceWorkload(w, inv.seconds, inv.outDir)
		res.Attempted, digest, values = tr.attempted, tr.digest, tr.metrics
	} else {
		var rounds []roundStats
		ys := newYardstick()
		start := time.Now()
		for len(rounds) < minRounds || time.Since(start) < inv.seconds {
			rs, err := execRound(w, roundOpts{ys: ys})
			res.Attempted += len(rs.runs)
			if err != nil {
				res.Attempted++
				runErr = err
				break
			}
			if len(rounds) > 0 && rs.digest != rounds[0].digest {
				runErr = fmt.Errorf("round %d digest %s differs from round 0 %s", len(rounds), rs.digest, rounds[0].digest)
				break
			}
			rounds = append(rounds, rs)
		}
		if len(rounds) > 0 {
			digest = rounds[0].digest
		}
		values = endToEnd(w, rounds)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", inv.workload, runErr)
		res.Correct = false
		res.Failed = 1
	}

	status := "unpinned"
	if pin, ok := pinnedDigest(inv.seed, inv.workload); ok && inv.scale == fullScale && digest != "" {
		status = "pinned match"
		if pin != digest {
			status = "PINNED MISMATCH, want " + pin
			res.Correct = false
		}
	}
	fmt.Printf("sim_digest %s %s\n", digest, status)

	defs := spec.EndToEnd
	if inv.trace {
		defs = spec.PerLayer
	}
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && res.Correct {
			return res, digest, fmt.Errorf("metric %s declared in BENCHMARK.json is not computed", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-26s %14.6g %s\n", d.Name, v, d.Unit)
	}
	return res, digest, nil
}

// endToEnd reduces the untraced rounds to the end-to-end metrics: the median
// over rounds of each round's value, with host times scaled to the
// yardstick's reference speed.
func endToEnd(w *workload, rounds []roundStats) map[string]float64 {
	var perWall, setup, cpu []float64
	for i, rs := range rounds {
		run := rs.run()
		fmt.Printf("round %d: slowdown %.4f, setup %.6f s, step+finish %.4f s, cpu %.4f s (raw)\n",
			i, run.raw.Seconds()/run.ref.Seconds(), rs.setup().raw.Seconds(), run.raw.Seconds(), rs.cpu().raw.Seconds())
		perWall = append(perWall, w.simTime()/run.ref.Seconds())
		setup = append(setup, rs.setup().ref.Seconds())
		cpu = append(cpu, rs.cpu().ref.Seconds())
	}
	fmt.Printf("%s: %d rounds of %d runs, %.3g simulated s per round\n", w.name, len(rounds), len(w.runs), w.simTime())
	show := func(name string, v []float64) float64 {
		q1, med, q3 := quartiles(v)
		fmt.Printf("  %-14s median %.6g  quartiles [%.6g, %.6g]  n=%d\n", name, med, q1, q3, len(v))
		return med
	}
	return map[string]float64{
		"sim_per_wall": show("sim_per_wall", perWall),
		"setup_s":      show("setup_s", setup),
		"cpu_s":        show("cpu_s", cpu),
		"peak_rss_mb":  peakRSSMiB(),
	}
}

func main() {
	workload := flag.String("workload", "", "workload to measure; empty runs them all -reps times in child processes")
	seed := flag.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Float64("seconds", 0, "seconds one invocation measures (0: BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 reruns the workload under a CPU profile and reports the per-layer metrics")
	scaleName := flag.String("scale", "full", "full, or smoke for a seconds-long check of the whole pipeline")
	reps := flag.Int("reps", 5, "untraced invocations per workload when -workload is empty")
	out := flag.String("out", "bench/out/result.json", "records file written when -workload is empty")
	compare := flag.Bool("compare", false, "compare the record files named as arguments, alternating parent and change")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		worse, err := compareFiles(os.Stdout, spec, flag.Args())
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sc := fullScale
	switch *scaleName {
	case "full":
	case "smoke":
		sc = smokeScale
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleName))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	secs := time.Duration(*seconds * float64(time.Second))

	if *workload == "" {
		ok, err := orchestrate(spec, *seed, secs, *scaleName, *reps, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, _, err := measure(invocation{
		workload: *workload, seed: *seed, seconds: secs, trace: *trace == 1,
		scale: sc, outDir: "bench/out",
	}, spec)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

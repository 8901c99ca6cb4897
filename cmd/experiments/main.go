// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run all            # everything, quick scale
//	experiments -run fig12udp,fig14 -scale paper
//	experiments -run fig2 -seed 7 -duration 10s
//
// Every experiment prints the same rows/series the paper reports. -scale
// paper uses the evaluation's 50-second runs and full repetition counts;
// -scale quick (default) is sized for a laptop minute.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

type experiment struct {
	name string
	desc string
	// run executes the experiment once. Its errors (infeasible topologies,
	// bad configs) surface here instead of panicking — main prints them and
	// exits non-zero. The result prints the human-readable tables and, when
	// it has a CSV method, also the machine-readable series for -csv.
	run func(o exp.Options) (printer, error)
}

func experiments() []experiment {
	return []experiment{
		{"table1", "ROP OFDM symbol parameters (Table 1)", func(o exp.Options) (printer, error) {
			return printFunc(exp.Table1), nil
		}},
		{"fig2", "Fig 1 network: DCF/CENTAUR/DOMINO/omniscient (Fig 2)", func(o exp.Options) (printer, error) {
			return result(exp.Fig2(o))
		}},
		{"fig5", "received spectra, adjacent subchannels (Fig 5)", func(o exp.Options) (printer, error) {
			return exp.Fig5(o.Seed), nil
		}},
		{"fig6", "guard subcarriers vs RSS difference (Fig 6)", func(o exp.Options) (printer, error) {
			return exp.Fig6(o), nil
		}},
		{"snrfloor", "ROP decode ratio vs SNR (§3.1)", func(o exp.Options) (printer, error) {
			return exp.SNRFloor(o), nil
		}},
		{"fig9", "signature detection vs combined count (Fig 9)", func(o exp.Options) (printer, error) {
			return result(exp.Fig9(o))
		}},
		{"fig10", "relative-schedule timeline on the Fig 7 network (Fig 10)", func(o exp.Options) (printer, error) {
			events, err := exp.Fig10(o, 60)
			if err != nil {
				return nil, err
			}
			return printFunc(func(w io.Writer) { exp.PrintFig10(w, events) }), nil
		}},
		{"table2", "USRP prototype: SC/HT/ET, DOMINO vs DCF (Table 2)", func(o exp.Options) (printer, error) {
			return result(exp.Table2(o))
		}},
		{"fig11", "TX misalignment convergence vs wired jitter (Fig 11)", func(o exp.Options) (printer, error) {
			return result(exp.Fig11(o))
		}},
		{"fig12udp", "UDP throughput/delay/fairness vs uplink rate (Fig 12a-c)", func(o exp.Options) (printer, error) {
			return result(exp.Fig12(o, core.UDPCBR))
		}},
		{"fig12tcp", "TCP throughput/delay/fairness vs uplink rate (Fig 12d-f)", func(o exp.Options) (printer, error) {
			return result(exp.Fig12(o, core.TCP))
		}},
		{"table3", "exposed-link topologies of Fig 13 (Table 3)", func(o exp.Options) (printer, error) {
			return result(exp.Table3(o))
		}},
		{"fig14", "CDF of DOMINO/DCF gain on random T(20,3) (Fig 14)", func(o exp.Options) (printer, error) {
			return result(exp.Fig14(o))
		}},
		{"polling", "batch size / polling frequency sweep (§5)", func(o exp.Options) (printer, error) {
			return result(exp.PollingSweep(o))
		}},
		{"lightload", "light-traffic delay, T(6,5) at 6 KBps (§5)", func(o exp.Options) (printer, error) {
			return result(exp.LightLoad(o))
		}},
		{"coexist", "CFP/CoP coexistence with external DCF traffic (§5, Fig 15)", func(o exp.Options) (printer, error) {
			return exp.Coexist(o), nil
		}},
		{"schedulers", "DOMINO under each registered strict scheduling policy", func(o exp.Options) (printer, error) {
			return result(exp.SchedulerSweep(o))
		}},
		{"pollers", "DOMINO under each registered polling scheme vs client count", func(o exp.Options) (printer, error) {
			return result(exp.PollerSweep(o))
		}},
	}
}

// printer is any experiment result that renders itself.
type printer interface{ Print(w io.Writer) }

// csvWriter is an experiment result with a CSV series.
type csvWriter interface{ CSV(w io.Writer) error }

// printFunc adapts a plain print function to printer.
type printFunc func(w io.Writer)

func (f printFunc) Print(w io.Writer) { f(w) }

// result adapts an error-returning experiment function to the run hook.
func result[T printer](r T, err error) (printer, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

func main() {
	var (
		runFlag   = flag.String("run", "", "comma-separated experiment names, or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		scale     = flag.String("scale", "quick", "quick | paper")
		seed      = flag.Int64("seed", 1, "random seed")
		duration  = flag.Duration("duration", 0, "override simulated run length")
		runs      = flag.Int("runs", 0, "override Monte-Carlo repetition count")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for independent runs and sweep points (same numbers at any value)")
		csvDir    = flag.String("csv", "", "also write machine-readable CSV series into this directory")
		traceFile = flag.String("trace", "", "write the NDJSON observability trace of every simulation of the selected MAC experiments (all but fig10 and coexist) to this file")
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

	all := experiments()
	if *list || *runFlag == "" {
		fmt.Println("available experiments:")
		for _, e := range all {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		if *runFlag == "" {
			fmt.Println("\nrun with: experiments -run all | -run fig2,fig12udp [-scale paper]")
		}
		return
	}

	var o exp.Options
	switch *scale {
	case "paper":
		o = exp.Paper()
	case "quick":
		o = exp.Quick()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	o.Seed = *seed
	o.Workers = *workers
	if *duration > 0 {
		o.Duration = sim.Time(duration.Nanoseconds())
	}
	if *runs > 0 {
		o.Runs = *runs
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		o.TraceSink = f
		defer f.Close()
	}

	want := map[string]bool{}
	if *runFlag == "all" {
		for _, e := range all {
			want[e.name] = true
		}
	} else {
		for _, n := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	var unknown []string
	for n := range want {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiments: %s (use -list)\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for _, e := range all {
		if !want[e.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.name, e.desc)
		r, err := e.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		r.Print(os.Stdout)
		if c, ok := r.(csvWriter); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, e.name+".csv")
			if err := writeCSV(path, c); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("   csv: %s\n", path)
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}
}

// writeCSV writes one result's CSV series to path.
func writeCSV(path string, c csvWriter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

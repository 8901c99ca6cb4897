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
	// run prints the experiment's human-readable tables; driver errors
	// (infeasible topologies, bad configs) surface here instead of
	// panicking — main prints them and exits non-zero.
	run func(o exp.Options) error
	// csv, when non-nil, writes the experiment's machine-readable series.
	csv func(o exp.Options, w io.Writer) error
}

func experiments() []experiment {
	return []experiment{
		{"table1", "ROP OFDM symbol parameters (Table 1)", func(o exp.Options) error {
			exp.Table1(os.Stdout)
			return nil
		}, nil},
		{"fig2", "Fig 1 network: DCF/CENTAUR/DOMINO/omniscient (Fig 2)", func(o exp.Options) error {
			return printErr(exp.Fig2(o))
		}, nil},
		{"fig5", "received spectra, adjacent subchannels (Fig 5)", func(o exp.Options) error {
			exp.Fig5(o.Seed).Print(os.Stdout)
			return nil
		}, nil},
		{"fig6", "guard subcarriers vs RSS difference (Fig 6)",
			func(o exp.Options) error { exp.Fig6(o).Print(os.Stdout); return nil },
			func(o exp.Options, w io.Writer) error { return exp.Fig6(o).CSV(w) }},
		{"snrfloor", "ROP decode ratio vs SNR (§3.1)", func(o exp.Options) error {
			exp.SNRFloor(o).Print(os.Stdout)
			return nil
		}, nil},
		{"fig9", "signature detection vs combined count (Fig 9)",
			func(o exp.Options) error { return printErr(exp.Fig9(o)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.Fig9(o))(w) }},
		{"fig10", "relative-schedule timeline on the Fig 7 network (Fig 10)", func(o exp.Options) error {
			events, err := exp.Fig10(o, 60)
			if err != nil {
				return err
			}
			exp.PrintFig10(os.Stdout, events)
			return nil
		}, nil},
		{"table2", "USRP prototype: SC/HT/ET, DOMINO vs DCF (Table 2)", func(o exp.Options) error {
			return printErr(exp.Table2(o))
		}, nil},
		{"fig11", "TX misalignment convergence vs wired jitter (Fig 11)",
			func(o exp.Options) error { return printErr(exp.Fig11(o)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.Fig11(o))(w) }},
		{"fig12udp", "UDP throughput/delay/fairness vs uplink rate (Fig 12a-c)",
			func(o exp.Options) error { return printErr(exp.Fig12(o, core.UDPCBR)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.Fig12(o, core.UDPCBR))(w) }},
		{"fig12tcp", "TCP throughput/delay/fairness vs uplink rate (Fig 12d-f)",
			func(o exp.Options) error { return printErr(exp.Fig12(o, core.TCP)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.Fig12(o, core.TCP))(w) }},
		{"table3", "exposed-link topologies of Fig 13 (Table 3)", func(o exp.Options) error {
			return printErr(exp.Table3(o))
		}, nil},
		{"fig14", "CDF of DOMINO/DCF gain on random T(20,3) (Fig 14)",
			func(o exp.Options) error { return printErr(exp.Fig14(o)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.Fig14(o))(w) }},
		{"polling", "batch size / polling frequency sweep (§5)", func(o exp.Options) error {
			return printErr(exp.PollingSweep(o))
		}, nil},
		{"lightload", "light-traffic delay, T(6,5) at 6 KBps (§5)", func(o exp.Options) error {
			return printErr(exp.LightLoad(o))
		}, nil},
		{"coexist", "CFP/CoP coexistence with external DCF traffic (§5, Fig 15)",
			func(o exp.Options) error { exp.Coexist(o).Print(os.Stdout); return nil },
			func(o exp.Options, w io.Writer) error { return exp.Coexist(o).CSV(w) }},
		{"schedulers", "DOMINO under each registered strict scheduling policy",
			func(o exp.Options) error { return printErr(exp.SchedulerSweep(o)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.SchedulerSweep(o))(w) }},
		{"pollers", "DOMINO under each registered polling scheme vs client count",
			func(o exp.Options) error { return printErr(exp.PollerSweep(o)) },
			func(o exp.Options, w io.Writer) error { return csvErr(exp.PollerSweep(o))(w) }},
	}
}

// printer is any experiment result that renders itself.
type printer interface{ Print(w io.Writer) }

// printErr prints the result unless the driver failed.
func printErr[T printer](r T, err error) error {
	if err != nil {
		return err
	}
	r.Print(os.Stdout)
	return nil
}

// csvWriter is any experiment result with a CSV series.
type csvWriter interface{ CSV(w io.Writer) error }

// csvErr adapts an error-returning driver to the csv hook.
func csvErr[T csvWriter](r T, err error) func(io.Writer) error {
	return func(w io.Writer) error {
		if err != nil {
			return err
		}
		return r.CSV(w)
	}
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
		traceFile = flag.String("trace", "", "write the NDJSON observability trace of supporting experiments (fig2, fig14) to this file")
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
		if err := e.run(o); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *csvDir != "" && e.csv != nil {
			path := filepath.Join(*csvDir, e.name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := e.csv(o, f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("   csv: %s\n", path)
		}
		fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
	}
}

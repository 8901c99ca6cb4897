package exp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// fig14TraceOpts is the smallest Fig 14 configuration that exercises the
// sharded tracer across several runs without dominating the test suite.
func fig14TraceOpts(workers int) Options {
	return Options{
		Seed:     1,
		Duration: 250 * sim.Millisecond,
		Warmup:   50 * sim.Millisecond,
		Runs:     2,
		Workers:  workers,
	}
}

// tracedDriver runs one multi-run driver and prints its result.
type tracedDriver struct {
	name string
	run  func(Options) (printer, error)
	// runStarts is the expected sequence of run_start schemes in the trace.
	runStarts string
}

// printer is any driver result that renders itself.
type printer interface{ Print(w io.Writer) }

func asPrinter[T printer](r T, err error) (printer, error) { return r, err }

var tracedDrivers = []tracedDriver{
	{"Fig14", func(o Options) (printer, error) { return asPrinter(Fig14(o)) },
		"DCF DOMINO DCF DOMINO"},
	{"PollingSweep", func(o Options) (printer, error) { return asPrinter(PollingSweep(o)) },
		strings.TrimSpace(strings.Repeat("DOMINO ", 10))},
}

// TestFig14TraceDeterministicAcrossWorkers is the observability determinism
// contract: the merged NDJSON trace of a parallel experiment — with causal
// spans enabled, since tracing turns them on — is byte-identical at any
// worker count, because span IDs are allocated per run, every run writes its
// own shard, and shards merge in run order. It covers Fig 14 and one other
// driver on the shared cell runner.
func TestFig14TraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run trace comparison")
	}
	for _, d := range tracedDrivers {
		t.Run(d.name, func(t *testing.T) {
			var traces, printed [3]bytes.Buffer
			for i, workers := range []int{1, 2, 8} {
				o := fig14TraceOpts(workers)
				o.TraceSink = &traces[i]
				r, err := d.run(o)
				if err != nil {
					t.Fatal(err)
				}
				r.Print(&printed[i])
			}
			serial := &traces[0]
			if serial.Len() == 0 {
				t.Fatal("traced driver produced an empty trace")
			}
			for i, workers := range []int{2, 8} {
				if !bytes.Equal(serial.Bytes(), traces[i+1].Bytes()) {
					t.Fatalf("trace differs between workers=1 (%d bytes) and workers=%d (%d bytes)",
						serial.Len(), workers, traces[i+1].Len())
				}
				if printed[0].String() != printed[i+1].String() {
					t.Fatalf("result differs between workers=1 and workers=%d:\n%s\nvs\n%s",
						workers, printed[0].String(), printed[i+1].String())
				}
			}

			// The stream must parse back into records, open with the first
			// run's run_start, carry the run delimiters in cell order, and
			// carry span annotations (DOMINO runs allocate spans when traced).
			var schemes []string
			var n, spanned int
			_, err := obs.ParseNDJSON(serial, func(r obs.Record) error {
				n++
				if r.Kind == obs.KindRunStart {
					schemes = append(schemes, r.Aux)
				}
				if r.Span != 0 || r.Parent != 0 {
					spanned++
				}
				return nil
			})
			if err != nil {
				t.Fatalf("merged trace does not parse: %v", err)
			}
			if n == 0 {
				t.Fatal("no records parsed")
			}
			if spanned == 0 {
				t.Fatal("no record carries a causal span; spans should be on in traced runs")
			}
			if got := strings.Join(schemes, " "); got != d.runStarts {
				t.Fatalf("run_start sequence = %q, want %q", got, d.runStarts)
			}
		})
	}
}

// errSink is the error failingSink's writes return.
var errSink = errors.New("sink full")

// failingSink is a TraceSink whose every write fails.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errSink }

// TestTraceWriteFailureSurfaces checks that a driver whose trace sink fails
// returns that failure as its error instead of reporting success with a
// truncated trace.
func TestTraceWriteFailureSurfaces(t *testing.T) {
	drivers := []tracedDriver{
		tracedDrivers[0],
		{name: "Table3", run: func(o Options) (printer, error) { return asPrinter(Table3(o)) }},
	}
	for _, d := range drivers {
		o := fig14TraceOpts(2)
		o.TraceSink = failingSink{}
		if _, err := d.run(o); !errors.Is(err, errSink) {
			t.Errorf("%s with a failing trace sink returned %v, want %v", d.name, err, errSink)
		}
	}
}

// TestFig2TraceSink checks the per-scheme sharding of the motivating figure.
func TestFig2TraceSink(t *testing.T) {
	var buf bytes.Buffer
	o := Options{Seed: 1, Duration: 200 * sim.Millisecond, Runs: 1, Trials: 1,
		Workers: 2, TraceSink: &buf}
	if _, err := Fig2(o); err != nil {
		t.Fatal(err)
	}
	var schemes []string
	if _, err := obs.ParseNDJSON(&buf, func(r obs.Record) error {
		if r.Kind == obs.KindRunStart {
			schemes = append(schemes, r.Aux)
		}
		return nil
	}); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if got := strings.Join(schemes, " "); got != "DCF CENTAUR DOMINO Omniscient" {
		t.Fatalf("run_start sequence = %q", got)
	}
}

// TestRunCellsStreamsShards: runCells writes a cell's trace shard once every
// earlier cell has finished, not when the driver ends. Run serially, the
// last cell waits inside its keep, before it finishes, for the sink's first
// write, which must be shard 0.
func TestRunCellsStreamsShards(t *testing.T) {
	sink := &firstWriteSink{wrote: make(chan struct{})}
	o := Options{Seed: 1, Workers: 1, TraceSink: sink}
	schemes := []core.Scheme{core.DCF, core.DOMINO, core.Omniscient}
	var early []byte // the sink's bytes as the last cell ran
	_, err := runCells(o, len(schemes), func(i int) (core.Scenario, error) {
		net := topo.Figure1()
		return core.Scenario{Net: net, Links: topo.Figure1Links(net), Scheme: schemes[i], Seed: o.Seed,
			Duration: 50 * sim.Millisecond, Traffic: core.Saturated}, nil
	}, func(i int, _ core.Result) int {
		if i == len(schemes)-1 {
			select {
			case <-sink.wrote:
				early = sink.first
			case <-time.After(10 * time.Second):
				t.Error("no shard reached the sink before the last cell finished")
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		buf  []byte
		want string
	}{{"first write", early, "DCF"}, {"stream", sink.Bytes(), "DCF DOMINO Omniscient"}} {
		var runs []string
		if _, err := obs.ParseNDJSON(bytes.NewReader(c.buf), func(r obs.Record) error {
			if r.Kind == obs.KindRunStart {
				runs = append(runs, r.Aux)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(runs, " "); got != c.want {
			t.Errorf("%s holds runs %q, want %q", c.name, got, c.want)
		}
	}
}

// firstWriteSink buffers a trace and closes wrote on its first write, whose
// bytes it keeps in first.
type firstWriteSink struct {
	bytes.Buffer
	first []byte
	wrote chan struct{}
}

func (s *firstWriteSink) Write(p []byte) (int, error) {
	if s.first == nil {
		s.first = bytes.Clone(p)
		close(s.wrote)
	}
	return s.Buffer.Write(p)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// record is one child invocation's outcome, as stored in a records file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Digest   string `json:"sim_digest"`
	result
}

// orchestrate runs every workload reps times untraced, round-robin so that
// drift in machine speed hits each workload alike, then once traced. Each
// invocation is a child process re-executing this binary, one at a time.
// It writes every record to out and reports whether all were correct.
func orchestrate(spec *benchSpec, seed int64, seconds time.Duration, scaleName string, reps int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("locating own binary: %w", err)
	}
	var recs []record
	ok := true
	runChild := func(w string, trace int) error {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds.Seconds(), 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-scale", scaleName)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		rec, err := parseChild(stdout.Bytes())
		if err != nil {
			return fmt.Errorf("%s (trace %d): %v (exit: %v)", w, trace, err, runErr)
		}
		rec.Workload, rec.Seed, rec.Trace = w, seed, trace
		ok = ok && rec.Correct && runErr == nil
		recs = append(recs, rec)
		fmt.Fprintf(os.Stderr, "bench: %-12s trace %d: correct=%v attempted=%d failed=%d\n",
			w, trace, rec.Correct, rec.Attempted, rec.Failed)
		return nil
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range spec.Workloads {
			if err := runChild(w.Name, 0); err != nil {
				return false, err
			}
		}
	}
	for _, w := range spec.Workloads {
		if err := runChild(w.Name, 1); err != nil {
			return false, err
		}
	}
	b, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, fmt.Errorf("records: %w", err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return false, fmt.Errorf("records: %w", err)
	}
	summarize(os.Stdout, spec, recs)
	fmt.Printf("records written to %s\n", out)
	return ok, nil
}

// parseChild reads a child's standard output: the sim_digest line and the
// final JSON result line.
func parseChild(stdout []byte) (record, error) {
	var rec record
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "sim_digest" {
			rec.Digest = f[1]
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &rec.result); err != nil {
		return rec, fmt.Errorf("no result line: %w", err)
	}
	return rec, nil
}

// summarize prints each workload's end-to-end metrics as median, quartiles
// and sample count over the records.
func summarize(w io.Writer, spec *benchSpec, recs []record) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tn\tunit")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			v := values(recs, wl.Name, 0, d.Name)
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", wl.Name, d.Name, med, q1, q3, len(v), d.Unit)
		}
	}
	tw.Flush()
}

// values collects one metric of one workload across records.
func values(recs []record, workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// compareFiles compares records files given in alternating parent, change
// order, one row per workload and end-to-end metric, and checks that the
// model outputs and digests are identical. It reports whether any metric
// is worse or any model output differs.
func compareFiles(w io.Writer, spec *benchSpec, files []string) (bool, error) {
	if len(files) < 2 {
		return false, fmt.Errorf("-compare needs at least a parent and a change file")
	}
	var sides [2][]record
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return false, fmt.Errorf("compare: %w", err)
		}
		var recs []record
		if err := json.Unmarshal(b, &recs); err != nil {
			return false, fmt.Errorf("compare %s: %w", f, err)
		}
		sides[i%2] = append(sides[i%2], recs...)
	}
	bad := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			p := values(sides[0], wl.Name, 0, d.Name)
			c := values(sides[1], wl.Name, 0, d.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\n", wl.Name, d.Name)
				bad = true
				continue
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			v := verdict(d, p, c)
			bad = bad || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, pm, pq1, pq3, cm, cq1, cq3, 100*(cm-pm)/pm, 100*d.Bound, v)
		}
	}
	tw.Flush()

	// Model outputs and digests depend only on the simulator and the seed:
	// a change that is only meant to be faster must leave them identical.
	for _, wl := range spec.Workloads {
		for _, d := range spec.PerLayer {
			if !strings.HasPrefix(d.Name, "model.") {
				continue
			}
			if p, c := values(sides[0], wl.Name, 1, d.Name), values(sides[1], wl.Name, 1, d.Name); !allEqual(p, c) {
				fmt.Fprintf(w, "%s %s differs: parent %v change %v\n", wl.Name, d.Name, p, c)
				bad = true
			}
		}
		if set := digestSet(wl.Name, sides[0], sides[1]); len(set) != 1 {
			fmt.Fprintf(w, "%s sim_digest differs across runs: %v\n", wl.Name, sortedKeys(set))
			bad = true
		}
	}
	return bad, nil
}

// verdict applies the claim rules: improved when the change wins nine
// tenths of the paired runs and the medians differ by more than the
// parent's interquartile range; worse when the change's median is worse by
// more than the bound; unresolved when the parent's own spread is wider
// than the bound and not every change run beats every parent run.
func verdict(d metricDef, p, c []float64) string {
	better := func(a, b float64) bool { // a reads better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	pairs, wins := min(len(p), len(c)), 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	diff := cm - pm
	if diff < 0 {
		diff = -diff
	}
	switch {
	case better(cm, pm) && 10*wins >= 9*pairs && diff > pq3-pq1:
		return "improved"
	case better(pm, cm) && diff/pm > d.Bound:
		return "worse"
	case (pq3-pq1)/pm > d.Bound && !allBetter(c, p, better):
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every value of c reads better than every value
// of p.
func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// digestSet returns the distinct sim_digests of a workload across records.
func digestSet(workload string, sides ...[]record) map[string]bool {
	set := map[string]bool{}
	for _, recs := range sides {
		for _, r := range recs {
			if r.Workload == workload && r.Digest != "" {
				set[r.Digest] = true
			}
		}
	}
	return set
}

func allEqual(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	for _, v := range [][]float64{a, b} {
		for _, x := range v {
			if x != a[0] {
				return false
			}
		}
	}
	return true
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

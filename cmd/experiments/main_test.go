package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test re-exec this binary as experiments itself: with
// EXPERIMENTS_MAIN set, the process runs main on the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"experiments"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCSVRunsExperimentOnce: -csv writes the series of the same run that
// printed the tables, so a traced Fig 14 with one topology holds exactly two
// runs (DCF and DOMINO) with or without -csv.
func TestCSVRunsExperimentOnce(t *testing.T) {
	dir := t.TempDir()
	for _, csv := range []bool{false, true} {
		trace := filepath.Join(dir, "fig14.ndjson")
		args := []string{"-run", "fig14", "-runs", "1", "-duration", "600ms", "-trace", trace}
		if csv {
			args = append(args, "-csv", dir)
		}
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("experiments %v: %v\n%s", args, err, out)
		}
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(b, []byte(`"k":"run_start"`)); n != 2 {
			t.Errorf("csv=%v: trace holds %d run_start records, want 2", csv, n)
		}
		if _, err := os.Stat(filepath.Join(dir, "fig14.csv")); csv && err != nil {
			t.Errorf("csv=%v: %v", csv, err)
		}
	}
}

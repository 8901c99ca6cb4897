package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-exec this binary as domino-sim itself: with
// DOMINO_SIM_MAIN set, the process runs main on the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("DOMINO_SIM_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"domino-sim"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs domino-sim with args in a child process and returns its exit
// code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "DOMINO_SIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("run domino-sim: %v", err)
		return 0, ""
	}
}

// TestRepsRejectsDominoFlags pins that repetitions refuse the DOMINO tuning
// flags they cannot apply, instead of running without them.
func TestRepsRejectsDominoFlags(t *testing.T) {
	base := []string{"-topo", "fig1", "-reps", "2", "-duration", "100ms", "-warmup", "10ms"}
	for _, extra := range [][]string{
		{"-poller", "ROP"},
		{"-scheduler", "lqf"},
		{"-verify-convert"},
	} {
		code, stderr := runMain(t, append(base, extra...)...)
		if code != 2 || !strings.Contains(stderr, extra[0]+" is not supported with -reps") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", extra, code, stderr, extra[0])
		}
	}
}

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
// code, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "DOMINO_SIM_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatalf("run domino-sim: %v", err)
		return 0, "", ""
	}
}

// TestRepsHonoursDominoFlags pins that the DOMINO flags reach repetitions
// through scheme_config: -reps 2 -poller uora runs, and differently from the
// default ROP. A scheme without those knobs rejects them by name.
func TestRepsHonoursDominoFlags(t *testing.T) {
	base := []string{"-topo", "fig1", "-reps", "2", "-duration", "100ms", "-warmup", "10ms"}
	code, uora, stderr := runMain(t, append(base, "-poller", "uora")...)
	if code != 0 {
		t.Fatalf("-reps 2 -poller uora: exit %d, stderr %q", code, stderr)
	}
	if _, rop, _ := runMain(t, base...); uora == rop {
		t.Errorf("-reps 2 -poller uora printed the same as the default poller:\n%s", uora)
	}
	code, _, stderr = runMain(t, "-topo", "fig1", "-scheme", "dcf", "-poller", "a2p", "-duration", "100ms", "-warmup", "10ms")
	if code != 2 || !strings.Contains(stderr, "DCF config has no field") {
		t.Errorf("-scheme dcf -poller a2p: exit %d, stderr %q; want exit 2 naming the DCF config", code, stderr)
	}
}

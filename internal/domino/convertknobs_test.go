package domino

import "testing"

// TestVerifyConvertRuns: the VerifyConvert debug knob verifies every emitted
// plan without disturbing the run (it panics on violation, so completing the
// run is the assertion).
func TestVerifyConvertRuns(t *testing.T) {
	ev, _ := traceRun(t, 5, func(c *Config) { c.VerifyConvert = true })
	if len(ev) == 0 {
		t.Fatal("verified run produced no trace records")
	}
}

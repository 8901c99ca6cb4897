package domino

import "testing"

// TestCustomScheduler runs DOMINO with the LQF scheduler in place of RAND —
// the converter must be scheduler-agnostic (paper contribution 1).
func TestCustomScheduler(t *testing.T) {
	aggLQF, eLQF := runWith(t, 31, func(c *Config) { c.Scheduler = "lqf" })
	aggRAND, _ := runWith(t, 31, nil)
	if aggLQF < 10 {
		t.Errorf("LQF-driven DOMINO got %.2f Mbps", aggLQF)
	}
	// Same topology, same traffic: the two schedulers should land in the
	// same ballpark (LQF lacks RAND's rotation fairness but picks the same
	// maximal sets under uniform saturation).
	if aggLQF < aggRAND*0.7 {
		t.Errorf("LQF %.2f far below RAND %.2f", aggLQF, aggRAND)
	}
	if eLQF.SelfStarts > 100 {
		t.Errorf("LQF chains unhealthy: %d self-starts", eLQF.SelfStarts)
	}
}

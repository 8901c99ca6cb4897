package domino

import (
	"testing"

	"repro/internal/convert"
)

// TestVerifyConvertRuns runs convert.Verify on every plan the converter
// emits during a traced, saturated Fig 7 run, through the engine's test-only
// plan hook.
func TestVerifyConvertRuns(t *testing.T) {
	plans := 0
	ev, _ := traceRun(t, 5, func(e *Engine) {
		e.onPlan = func(p *convert.Plan) {
			plans++
			if err := convert.Verify(p); err != nil {
				t.Fatalf("plan %d: %v", plans, err)
			}
		}
	})
	if len(ev) == 0 || plans == 0 {
		t.Fatalf("verified run produced %d trace records over %d plans", len(ev), plans)
	}
	t.Logf("%d plans verified", plans)
}

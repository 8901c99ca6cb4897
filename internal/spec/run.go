package spec

import (
	"fmt"

	"repro/internal/registry"
)

// RunControl holds the run-lifecycle knobs a spec's "run" object can set:
// how finely internal/run slices a run into steps, the boundaries at which
// it can be checkpointed and restored. Both knobs are output-transparent —
// they bound where a run can pause, never what it produces.
type RunControl struct {
	// StepEvents bounds how many kernel events a single-engine run fires
	// per step — the granularity at which checkpoints can be taken. Zero
	// means the executor default (65536).
	StepEvents int `json:"step_events,omitempty"`

	// StepWindow bounds how much simulated time a sharded run advances
	// per step (shard.Options.StepGranule). Zero means single-leap
	// execution: the whole run is one step.
	StepWindow Duration `json:"step_window,omitempty"`
}

// RunControl decodes the spec's "run" object, applying zero-value defaults
// for absent fields. A key naming no RunControl field (JSON tags,
// case-insensitive) is an error listing the knobs, so a typo never becomes
// a silently ignored knob.
func (s Spec) RunControl() (RunControl, error) {
	var rc RunControl
	if err := registry.Overlay(&rc, s.Run, "run", "knob"); err != nil {
		return rc, fmt.Errorf("spec: %w", err)
	}
	return rc, nil
}

// validateRun decodes the "run" object and range-checks its values.
func (s Spec) validateRun() error {
	rc, err := s.RunControl()
	if err != nil {
		return err
	}
	if rc.StepEvents < 0 {
		return fmt.Errorf("spec: run.step_events %d is negative; use 0 for the executor default", rc.StepEvents)
	}
	if rc.StepWindow < 0 {
		return fmt.Errorf("spec: run.step_window %v is negative; use 0 for single-leap execution", rc.StepWindow)
	}
	if rc.StepWindow > 0 && s.Shards == nil {
		return fmt.Errorf("spec: run.step_window only applies to sharded runs (set shards ≥ 1, or use run.step_events for the single-engine path)")
	}
	if rc.StepEvents > 0 && s.Shards != nil {
		return fmt.Errorf("spec: run.step_events only applies to single-engine runs (sharded runs step by window; use run.step_window)")
	}
	return nil
}

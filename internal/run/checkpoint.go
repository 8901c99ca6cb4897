package run

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

// CheckpointFormat versions the checkpoint document; Restore rejects
// formats it does not understand.
const CheckpointFormat = 3

// Checkpoint is a self-contained, JSON-serializable snapshot of a run at a
// step boundary: the spec to rebuild from, the replay coordinate to advance
// to, and the integrity state Restore verifies the replay against. It holds
// no closures and no engine internals — determinism, not serialization,
// carries the state.
type Checkpoint struct {
	Format int       `json:"format"`
	Spec   spec.Spec `json:"spec"`

	// Steps is the completed Step count; Done marks a run checkpointed
	// after its final step (only Finish remains).
	Steps int  `json:"steps"`
	Done  bool `json:"done,omitempty"`

	// TraceBytes is the exact NDJSON byte offset emitted so far; the
	// replayed prefix is discarded against it and must land on it exactly.
	TraceBytes int64 `json:"trace_bytes"`

	// Single-engine integrity state: the full kernel state (queue shape
	// included — the replay coordinate is Kernel.Fired), the scheme
	// engine's counter snapshot, and the metrics registry when enabled.
	Kernel  *sim.KernelState    `json:"kernel,omitempty"`
	Engine  *scheme.EngineState `json:"engine,omitempty"`
	Metrics *obs.MetricsState   `json:"metrics,omitempty"`

	// Sharded integrity state: one entry per interference domain.
	Domains []DomainState `json:"domains,omitempty"`
}

// DomainState is one sharded domain's integrity snapshot.
type DomainState struct {
	Kernel        sim.KernelState    `json:"kernel"`
	Engine        scheme.EngineState `json:"engine"`
	MetricsDigest uint64             `json:"metrics_digest,omitempty"`
}

// Checkpoint snapshots the run between two steps. The trace is flushed
// first so TraceBytes is exact. Checkpointing a finished run is an error
// (there is nothing left to resume); checkpointing after the final step but
// before Finish is fine.
func (r *Run) Checkpoint() (*Checkpoint, error) {
	if r.finished {
		return nil, fmt.Errorf("run: checkpoint after Finish")
	}
	if err := r.Flush(); err != nil {
		return nil, fmt.Errorf("run: checkpoint trace flush: %w", err)
	}
	cp := &Checkpoint{
		Format:     CheckpointFormat,
		Spec:       r.sp,
		Steps:      r.steps,
		Done:       r.done,
		TraceBytes: r.TraceBytes(),
	}
	d, ok := scheme.Registry.Lookup(r.schemeName)
	if !ok {
		return nil, fmt.Errorf("run: scheme %q vanished from the registry", r.schemeName)
	}
	if r.st != nil {
		for _, inst := range r.st.Instances() {
			ds := DomainState{Kernel: inst.Kernel.CheckpointState()}
			ds.Engine, _ = scheme.CheckpointEngine(d, inst.Engine)
			if inst.S.Metrics != nil {
				ds.MetricsDigest = inst.S.Metrics.State().Digest()
			}
			cp.Domains = append(cp.Domains, ds)
		}
	} else {
		ks := r.inst.Kernel.CheckpointState()
		cp.Kernel = &ks
		es, _ := scheme.CheckpointEngine(d, r.inst.Engine)
		cp.Engine = &es
		if r.metrics != nil {
			ms := r.metrics.State()
			cp.Metrics = &ms
		}
	}
	return cp, nil
}

// Marshal renders the checkpoint as indented JSON.
func (cp *Checkpoint) Marshal() ([]byte, error) {
	return json.MarshalIndent(cp, "", "  ")
}

// UnmarshalCheckpoint parses a checkpoint document.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("run: bad checkpoint document: %w", err)
	}
	if cp.Format != CheckpointFormat {
		return nil, fmt.Errorf("run: checkpoint format %d not supported (want %d)", cp.Format, CheckpointFormat)
	}
	return &cp, nil
}

// Restore rebuilds the run from the checkpoint's spec, replays it to the
// checkpoint's coordinate, verifies the rebuilt kernel/engine/metrics state
// matches the snapshot, and returns a run that continues exactly where the
// checkpointed one stopped — including a byte-identical remainder trace
// (the replayed prefix is discarded against TraceBytes). Any verification
// failure means the environment no longer reproduces the original run (a
// changed binary, registry or spec) and aborts the restore.
func Restore(cp *Checkpoint, opt Options) (*Run, error) {
	if cp.Format != CheckpointFormat {
		return nil, fmt.Errorf("run: checkpoint format %d not supported (want %d)", cp.Format, CheckpointFormat)
	}
	r, err := build(cp.Spec, opt, cp.TraceBytes)
	if err != nil {
		return nil, err
	}
	if r.st != nil {
		if err := r.replayShard(cp); err != nil {
			return nil, err
		}
	} else {
		if err := r.replaySingle(cp); err != nil {
			return nil, err
		}
	}
	r.steps = cp.Steps
	r.done = cp.Done

	// The replayed prefix must regenerate the recorded trace offset
	// exactly; a shortfall or overrun means divergence the state audits
	// somehow missed.
	if err := r.Flush(); err != nil {
		return nil, fmt.Errorf("run: restore trace flush: %w", err)
	}
	if got := r.TraceBytes(); got != cp.TraceBytes {
		return nil, fmt.Errorf("run: restore replayed %d trace bytes, checkpoint recorded %d", got, cp.TraceBytes)
	}
	return r, nil
}

// replaySingle advances the rebuilt kernel to the checkpoint's fired-event
// count and audits kernel, engine and metrics state.
func (r *Run) replaySingle(cp *Checkpoint) error {
	if cp.Kernel == nil {
		return fmt.Errorf("run: single-engine checkpoint lacks kernel state")
	}
	k := r.inst.Kernel
	if need := cp.Kernel.Fired - k.Fired(); need > 0 {
		k.RunCount(r.duration, need)
	}
	if err := k.VerifyState(*cp.Kernel); err != nil {
		return fmt.Errorf("run: restore: %w", err)
	}
	if cp.Engine != nil {
		d, ok := scheme.Registry.Lookup(r.schemeName)
		if !ok {
			return fmt.Errorf("run: scheme %q vanished from the registry", r.schemeName)
		}
		es, _ := scheme.CheckpointEngine(d, r.inst.Engine)
		if !es.Equal(*cp.Engine) {
			return fmt.Errorf("run: restore: engine state diverged (replayed digest %#x, checkpoint %#x)", es.Digest(), cp.Engine.Digest())
		}
	}
	if cp.Metrics != nil {
		if r.metrics == nil {
			return fmt.Errorf("run: restore: checkpoint has metrics state but the rebuilt run collects none")
		}
		if got, want := r.metrics.State().Digest(), cp.Metrics.Digest(); got != want {
			return fmt.Errorf("run: restore: metrics diverged (replayed digest %#x, checkpoint %#x)", got, want)
		}
	}
	return nil
}

// replayShard re-executes the checkpointed number of step_window granules
// and audits every domain.
func (r *Run) replayShard(cp *Checkpoint) error {
	if len(cp.Domains) == 0 {
		return fmt.Errorf("run: sharded checkpoint lacks domain state")
	}
	insts := r.st.Instances()
	if len(insts) != len(cp.Domains) {
		return fmt.Errorf("run: restore partitioned into %d domains, checkpoint has %d", len(insts), len(cp.Domains))
	}
	for i := 0; i < cp.Steps; i++ {
		if r.st.StepWindow() && i != cp.Steps-1 {
			return fmt.Errorf("run: restore finished after %d steps, checkpoint recorded %d", i+1, cp.Steps)
		}
	}
	d, ok := scheme.Registry.Lookup(r.schemeName)
	if !ok {
		return fmt.Errorf("run: scheme %q vanished from the registry", r.schemeName)
	}
	for i, inst := range insts {
		if err := inst.Kernel.VerifyState(cp.Domains[i].Kernel); err != nil {
			return fmt.Errorf("run: restore domain %d: %w", i, err)
		}
		es, _ := scheme.CheckpointEngine(d, inst.Engine)
		if !es.Equal(cp.Domains[i].Engine) {
			return fmt.Errorf("run: restore domain %d: engine state diverged (replayed digest %#x, checkpoint %#x)", i, es.Digest(), cp.Domains[i].Engine.Digest())
		}
		if want := cp.Domains[i].MetricsDigest; want != 0 {
			if inst.S.Metrics == nil {
				return fmt.Errorf("run: restore domain %d: checkpoint has metrics state but the rebuilt run collects none", i)
			}
			if got := inst.S.Metrics.State().Digest(); got != want {
				return fmt.Errorf("run: restore domain %d: metrics diverged (replayed digest %#x, checkpoint %#x)", i, got, want)
			}
		}
	}
	return nil
}

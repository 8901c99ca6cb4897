// Package domino implements the DOMINO channel-access framework (paper §3):
// a central server computes strict schedules from polled queue state,
// converts them to relative schedules (internal/convert), and distributes
// them to APs over a jittery wired backbone; on the air, every slot's
// transmissions are triggered by Gold-signature broadcasts appended to the
// previous slot's exchange — no clock synchronization anywhere.
package domino

import (
	"encoding/json"
	"fmt"

	"repro/internal/convert"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/poll"
	"repro/internal/sim"
	"repro/internal/strict"
)

// Config parameterises a DOMINO instance. Rate and VirtualBytes come from
// the scenario (scheme.Params), not scheme_config.
type Config struct {
	// Rate is the PHY data rate for data frames.
	Rate phy.Rate `json:"-"`
	// VirtualBytes is the fixed virtual-packet size every slot is sized for
	// (§3.5: packet splitting/aggregation makes all packets take equal air
	// time).
	VirtualBytes int `json:"-"`
	// BatchSize is the number of strict slots per scheduling batch — the
	// reciprocal of the polling frequency (§5).
	BatchSize int `domain:"1..256"`
	// AdaptiveBatch shrinks batches toward minAdaptiveBatch slots when
	// demand is light, so light arrivals are not gated behind a full batch
	// of fake slots — the "better polling scheme" the paper leaves as future
	// work (§5).
	AdaptiveBatch bool
	// WiredLatencyMean/Std describe backbone latency between server and APs
	// (paper §4.2.1: normal with mean 285 µs, σ 22 µs).
	WiredLatencyMean sim.Time `domain:"0..10ms"`
	WiredLatencyStd  sim.Time `domain:"0..10ms"`
	// QueueCap bounds per-link MAC queues.
	QueueCap int `domain:"1..100000"`
	// ExtraFrameTime inflates data/ACK air time (USRP prototype modelling).
	ExtraFrameTime sim.Time `domain:"0..100ms"`
	// MaxInbound is the converter's trigger redundancy (the paper picks 2;
	// up to the 4-signature outbound limit for ablations).
	MaxInbound int `domain:"1..4"`
	// NoFakeCover disables the converter's fake-link insertion (ablation).
	NoFakeCover bool
	// CoPDuration, when positive, inserts a carrier-sensing contention
	// period of this length after every batch (the CFP/CoP split of §5,
	// Fig 15): DOMINO stays silent and external DCF traffic gets the
	// channel; DOMINO's data frames carry a NAV to the end of each CFP.
	CoPDuration sim.Time `domain:"0..100ms"`
	// Scheduler selects the strict scheduling policy by registered name
	// (internal/strict registry: RAND, LQF, RoundRobin, Weighted and their
	// aliases, case-insensitive). Empty means the paper's RAND. Any
	// strict.Scheduler plugs in through strict.Schedulers.MustRegister — the
	// converter is scheduler-agnostic (§3, contribution 1).
	Scheduler string
	// SignatureChips selects the Gold-code length (127, 255* or 511; §5
	// "Number of signatures"): longer codes support more nodes per collision
	// domain at proportionally longer trigger air time. (*255 has no true
	// Gold preferred pair — m=8 ≡ 0 mod 4 — so the 511 set serves that
	// capacity bracket too.)
	SignatureChips int `domain:"127|255|511"`
	// Poller selects the polling scheme by registered name (internal/poll
	// registry: ROP, A2P, UORA and their aliases, case-insensitive). Empty
	// means the paper's ROP. Multi-round pollers widen every poll boundary to
	// rounds × the ROP slot duration, so the relative schedule stays
	// renegotiation-free.
	Poller string
	// PollerConfig overlays poller-specific knobs (a JSON object of the
	// poller's config-struct fields) on its defaults. Ignored when empty.
	PollerConfig json.RawMessage
	// Piggyback replaces Rapid OFDM Polling with the naive piggyback scheme
	// the paper argues against (§2): clients report their backlog only in
	// the headers of packets they send, so a client that falls silent can
	// never announce new arrivals — the starvation ROP was designed to fix.
	Piggyback bool
}

const (
	// minAdaptiveBatch is the floor AdaptiveBatch shrinks batches to.
	minAdaptiveBatch = 4
	// watchdogSlots is how many slot durations of silence an AP tolerates
	// before self-starting its next action — a last resort: the per-AP
	// free-running slot clock (scheduleSelfArm) is the normal fallback when
	// triggers fail, so the watchdog only matters if that chain also broke.
	watchdogSlots = 12
	// misalignSlots is how many leading slot indices the misalignment probe
	// (Engine.Misalign, Fig 11) records: the first slots, where the initial
	// misalignment converges.
	misalignSlots = 8
)

// DefaultConfig mirrors the evaluation settings.
func DefaultConfig() Config {
	return Config{
		Rate:             phy.Rate12,
		VirtualBytes:     512,
		BatchSize:        24,
		WiredLatencyMean: sim.Micros(285),
		WiredLatencyStd:  sim.Micros(22),
		QueueCap:         mac.DefaultQueueCap,
		MaxInbound:       convert.DefaultMaxInbound,
		SignatureChips:   127,
	}
}

// durations are a Config's derived timings, computed once when the Engine
// is built (Engine.dur): slots, triggers and polls read them every time.
type durations struct {
	// data and ack are the air times of one virtual data packet and its ACK.
	data, ack sim.Time
	// header is a header-only frame's air time, PLCP preamble plus one OFDM
	// symbol: a fake packet (§3.3: only the header is sent) and a poll (a
	// short broadcast carrying the reference preamble).
	header sim.Time
	// broadcastOffset is when, relative to slot start, the end-of-slot
	// signature broadcast begins: data + SIFS + ACK + one WiFi slot (paper
	// Fig 8).
	broadcastOffset sim.Time
	// sigFrame is the combined-signature broadcast followed by the START (or
	// ROP) signature in sequence, each one code at 20 Mcps BPSK.
	sigFrame sim.Time
	// slot is the full relative-slot period.
	slot sim.Time
	// ropSlot is the gap data senders leave for one polling exchange: the
	// poll, the WiFi-slot turnaround, the 16 µs control symbol and
	// processing slack. With zero ExtraFrameTime this matches the nominal
	// 80 µs ROP slot (paper §3.3), its floor.
	ropSlot sim.Time
}

// durations computes c's derived timings.
func (c Config) durations() durations {
	d := durations{
		data:     phy.Airtime(c.VirtualBytes, c.Rate) + c.ExtraFrameTime,
		ack:      phy.Airtime(phy.AckBytes, c.Rate) + c.ExtraFrameTime,
		header:   phy.PreambleDuration + phy.SymbolDuration + c.ExtraFrameTime,
		sigFrame: 2 * sim.Micros(float64(c.SignatureChips)/20),
	}
	d.broadcastOffset = d.data + phy.SIFS + d.ack + phy.SlotTime
	d.slot = d.broadcastOffset + d.sigFrame
	d.ropSlot = max(d.header+phy.SlotTime+sim.Micros(16)+sim.Micros(31), phy.ROPSlotDuration)
	return d
}

// SignatureCapacity is how many distinct node signatures the configured code
// length provides within one collision domain (2^m + 1 codes minus the two
// reserved for START and ROP; paper §3.2).
func (c Config) SignatureCapacity() int {
	return c.SignatureChips // 2^m+1 codes − 2 reserved = (2^m −1) = chips
}

// check rejects a scheduler or poller (with its knobs) the registries cannot
// build; Overlay enforces the numeric knobs' declared domains.
func (c Config) check() error {
	if _, err := strict.Schedulers.Resolve(c.Scheduler); err != nil {
		return err
	}
	_, err := poll.Build(c.Poller, c.PollerConfig)
	return err
}

// fits reports whether a network of n nodes has a signature per node.
func (c Config) fits(n int) error {
	if n > c.SignatureCapacity() {
		return fmt.Errorf("%d nodes exceed the %d-signature capacity; use longer codes (SignatureChips)",
			n, c.SignatureCapacity())
	}
	return nil
}

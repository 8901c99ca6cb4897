// Package domino implements the DOMINO channel-access framework (paper §3):
// a central server computes strict schedules from polled queue state,
// converts them to relative schedules (internal/convert), and distributes
// them to APs over a jittery wired backbone; on the air, every slot's
// transmissions are triggered by Gold-signature broadcasts appended to the
// previous slot's exchange — no clock synchronization anywhere.
package domino

import (
	"encoding/json"

	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Config parameterises a DOMINO instance.
type Config struct {
	// Rate is the PHY data rate for data frames.
	Rate phy.Rate
	// VirtualBytes is the fixed virtual-packet size every slot is sized for
	// (§3.5: packet splitting/aggregation makes all packets take equal air
	// time).
	VirtualBytes int
	// BatchSize is the number of strict slots per scheduling batch — the
	// reciprocal of the polling frequency (§5).
	BatchSize int
	// AdaptiveBatch shrinks batches toward minAdaptiveBatch slots when
	// demand is light, so light arrivals are not gated behind a full batch
	// of fake slots — the "better polling scheme" the paper leaves as future
	// work (§5).
	AdaptiveBatch bool
	// WiredLatencyMean/Std describe backbone latency between server and APs
	// (paper §4.2.1: normal with mean 285 µs, σ 22 µs).
	WiredLatencyMean sim.Time
	WiredLatencyStd  sim.Time
	// QueueCap bounds per-link MAC queues.
	QueueCap int
	// MisalignSlots is how many leading slot indices the misalignment probe
	// records (Fig 11); zero disables.
	MisalignSlots int
	// ExtraFrameTime inflates data/ACK air time (USRP prototype modelling).
	ExtraFrameTime sim.Time
	// MaxInbound overrides the converter's trigger redundancy when positive
	// (ablation; the paper picks 2).
	MaxInbound int
	// NoFakeCover disables the converter's fake-link insertion (ablation).
	NoFakeCover bool
	// CoPDuration, when positive, inserts a carrier-sensing contention
	// period of this length after every batch (the CFP/CoP split of §5,
	// Fig 15): DOMINO stays silent and external DCF traffic gets the
	// channel; DOMINO's data frames carry a NAV to the end of each CFP.
	CoPDuration sim.Time
	// Scheduler selects the strict scheduling policy by registered name
	// (internal/strict registry: RAND, LQF, RoundRobin, Weighted and their
	// aliases, case-insensitive). Empty means the paper's RAND. Any
	// strict.Scheduler plugs in through strict.RegisterScheduler — the
	// converter is scheduler-agnostic (§3, contribution 1).
	Scheduler string
	// VerifyConvert runs convert.Verify on every plan the converter emits
	// and panics on violation — a debug aid (tests always verify; production
	// runs skip the O(slots²) check).
	VerifyConvert bool
	// ConvertTrace, when the engine has a trace sink, emits per-batch
	// KindConvert records: deterministic pass counters, the batch size and
	// trigger/signature histograms. Off by default so existing golden traces
	// are byte-identical.
	ConvertTrace bool
	// SignatureChips selects the Gold-code length (127, 255* or 511; §5
	// "Number of signatures"): longer codes support more nodes per collision
	// domain at proportionally longer trigger air time. Zero means 127.
	// (*255 has no true Gold preferred pair — m=8 ≡ 0 mod 4 — so the 511
	// set serves that capacity bracket too.)
	SignatureChips int
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
		MisalignSlots:    0,
	}
}

// dataAirtime is the fixed air time of one virtual data packet.
func (c Config) dataAirtime() sim.Time {
	return phy.Airtime(c.VirtualBytes, c.Rate) + c.ExtraFrameTime
}

func (c Config) ackAirtime() sim.Time {
	return phy.Airtime(phy.AckBytes, c.Rate) + c.ExtraFrameTime
}

// fakeHeaderAirtime is the on-air time of a header-only fake packet: PLCP
// preamble plus one OFDM symbol (§3.3: only the header is sent).
func (c Config) fakeHeaderAirtime() sim.Time {
	return phy.PreambleDuration + phy.SymbolDuration + c.ExtraFrameTime
}

// broadcastOffset is when, relative to slot start, the end-of-slot signature
// broadcast begins: data + SIFS + ACK + one WiFi slot (paper Fig 8).
func (c Config) broadcastOffset() sim.Time {
	return c.dataAirtime() + phy.SIFS + c.ackAirtime() + phy.SlotTime
}

// signatureDuration is one code's air time at 20 Mcps BPSK.
func (c Config) signatureDuration() sim.Time {
	chips := c.SignatureChips
	if chips <= 0 {
		chips = 127
	}
	return sim.Micros(float64(chips) / 20)
}

// SignatureCapacity is how many distinct node signatures the configured code
// length provides within one collision domain (2^m + 1 codes minus the two
// reserved for START and ROP; paper §3.2).
func (c Config) SignatureCapacity() int {
	chips := c.SignatureChips
	if chips <= 0 {
		chips = 127
	}
	return chips // 2^m+1 codes − 2 reserved = (2^m −1) = chips
}

// sigFrameDuration is the combined-signature broadcast followed by the START
// (or ROP) signature in sequence.
func (c Config) sigFrameDuration() sim.Time {
	return 2 * c.signatureDuration()
}

// slotDuration is the full relative-slot period.
func (c Config) slotDuration() sim.Time {
	return c.broadcastOffset() + c.sigFrameDuration()
}

// pollAirtime is the poll packet's air time (a short broadcast carrying the
// reference preamble).
func (c Config) pollAirtime() sim.Time {
	return phy.PreambleDuration + phy.SymbolDuration + c.ExtraFrameTime
}

// ropSlotDuration is the gap data senders leave for one polling exchange:
// the poll packet, the WiFi-slot turnaround, the 16 µs control symbol and
// processing slack. With zero ExtraFrameTime this matches the nominal
// 80 µs ROP slot (paper §3.3).
func (c Config) ropSlotDuration() sim.Time {
	d := c.pollAirtime() + phy.SlotTime + sim.Micros(16) + sim.Micros(31)
	if d < phy.ROPSlotDuration {
		d = phy.ROPSlotDuration
	}
	return d
}

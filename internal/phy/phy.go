// Package phy models the shared wireless medium every MAC engine in this
// repository runs on: an RSS matrix between nodes, SINR-based reception with
// interference integrated over each frame's air time, energy-based carrier
// sensing with listener callbacks, and the 802.11g ERP-OFDM frame timing.
//
// The model follows the conventions of packet-level wireless simulators
// (ns-2/ns-3 style): a frame is decodable iff the signal-to-interference-plus-
// noise ratio stays above the rate's threshold for the frame's whole duration,
// with interference tracked as the worst instantaneous sum of all concurrent
// transmissions. Signature frames (Gold-code triggers, paper §3.2) are special:
// orthogonal spreading lets them survive collisions with other signatures, so
// their SINR test counts only non-signature interference and the number of
// concurrently combined signatures is reported to the detector installed by
// the MAC engine.
package phy

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// NodeID identifies a radio attached to a Medium. IDs are dense indices into
// the RSS matrix.
type NodeID int

// Broadcast is the destination for frames addressed to every node in range.
const Broadcast NodeID = -1

// Rate is a PHY data rate in Mbps.
type Rate float64

// 802.11g ERP-OFDM rates.
const (
	Rate6  Rate = 6
	Rate9  Rate = 9
	Rate12 Rate = 12
	Rate18 Rate = 18
	Rate24 Rate = 24
	Rate36 Rate = 36
	Rate48 Rate = 48
	Rate54 Rate = 54
)

// 802.11g MAC/PHY timing constants (20 MHz ERP-OFDM).
var (
	// SlotTime is the 802.11 slot (9 µs), also the gap DOMINO leaves between
	// an ACK and the signature broadcast (paper Fig 8).
	SlotTime = sim.Micros(9)
	// SIFS separates a data frame from its ACK.
	SIFS = sim.Micros(10)
	// DIFS = SIFS + 2 slots, the idle period DCF requires before backoff.
	DIFS = SIFS + 2*SlotTime
	// PreambleDuration covers the PLCP preamble (16 µs) plus SIGNAL (4 µs).
	PreambleDuration = sim.Micros(20)
	// SymbolDuration is one OFDM data symbol.
	SymbolDuration = sim.Micros(4)
	// SignatureDuration is one length-127 Gold code at 20 MHz BPSK
	// (127 chips / 20 Mcps = 6.35 µs, paper §3.2).
	SignatureDuration = sim.Micros(6.35)
	// ROPSlotDuration is the air time of one polling exchange: poll packet,
	// one WiFi slot of turnaround, and the 16 µs control symbol with its CP
	// (paper §3.1, Fig 4), rounded up to cover processing slack.
	ROPSlotDuration = sim.Micros(80)
)

// AckBytes is the length of an 802.11 ACK frame.
const AckBytes = 14

// Airtime returns the duration of a frame of the given MAC-layer length at
// the given rate: PLCP preamble + SIGNAL plus ceil((service+tail+payload
// bits)/NDBPS) OFDM symbols.
func Airtime(bytes int, rate Rate) sim.Time {
	ndbps := float64(rate) * 4 // bits per 4 µs symbol at 20 MHz
	bits := float64(16 + 6 + 8*bytes)
	nsym := math.Ceil(bits / ndbps)
	return PreambleDuration + sim.Time(nsym)*SymbolDuration
}

// SNRThresholdDB returns the minimum SNR (dB) at which a frame of the given
// rate is decodable, from the ns-3 OFDM error-rate validation the paper cites
// ([29]: 6 Mbps is reliable from about 4 dB).
func SNRThresholdDB(rate Rate) float64 {
	switch rate {
	case Rate6:
		return 4
	case Rate9:
		return 5
	case Rate12:
		return 7
	case Rate18:
		return 9
	case Rate24:
		return 12
	case Rate36:
		return 16
	case Rate48:
		return 20
	case Rate54:
		return 21
	default:
		// Non-standard rates (e.g. the low-rate USRP prototype PHY): BPSK-like
		// robustness below 6 Mbps, log-scaled above.
		if rate <= 6 {
			return 4
		}
		return 4 + 6*math.Log2(float64(rate)/6)
	}
}

// DBmToMw converts decibel-milliwatts to milliwatts.
func DBmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MwToDBm converts milliwatts to decibel-milliwatts.
func MwToDBm(mw float64) float64 { return 10 * math.Log10(mw) }

// FrameKind distinguishes the frame types the MAC engines exchange.
type FrameKind int

const (
	// Data is a MAC data frame (or a TCP ACK riding as data).
	Data FrameKind = iota
	// Ack is a link-layer acknowledgement.
	Ack
	// Poll is an ROP polling request broadcast by an AP (paper §3.1).
	Poll
	// Report is the single OFDM control symbol carrying client queue sizes.
	// All clients of the polling AP send their Report concurrently on
	// orthogonal subchannels, so Reports never interfere with each other.
	Report
	// Signature is a Gold-code trigger broadcast (paper §3.2). Payload is a
	// SignaturePayload.
	Signature
	// FakeHeader is the header-only fake packet the converter schedules to
	// keep trigger chains alive (paper §3.3).
	FakeHeader
)

// String implements fmt.Stringer for trace output.
func (k FrameKind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Poll:
		return "POLL"
	case Report:
		return "REPORT"
	case Signature:
		return "SIG"
	case FakeHeader:
		return "FAKE"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// SignaturePayload is the content of a Signature frame: the signature IDs
// combined (summed) into this trigger broadcast, plus whether the special
// START (S′) or ROP signature terminates the sequence (paper §3.2–3.3).
type SignaturePayload struct {
	// Sigs holds the node-signature IDs summed into this broadcast.
	Sigs []int
	// Start marks the S′ START signature that authorises triggered nodes to
	// begin transmitting.
	Start bool
	// ROP marks the ROP signature variant: triggered nodes must additionally
	// wait one ROP slot before transmitting (paper §3.3).
	ROP bool
	// SlotHint is the global index of the slot this trigger starts. The S′
	// sequence arrives once per slot, so receivers can count slots; carrying
	// the count explicitly models that counter and lets nodes match duties
	// to slots and skip ones whose air time has passed.
	SlotHint int
	// ObsSpan/ObsDepth ride the broadcast for the obs layer only: the span
	// of this signature broadcast and the trigger-cascade depth accumulated
	// so far, so a receiver's trigger record can parent itself to the
	// broadcast that caused it. Zero when tracing is off; no MAC or PHY
	// decision may read them.
	ObsSpan  int64
	ObsDepth int
}

// Combined returns the number of signatures summed into the broadcast; START
// and ROP markers ride along without adding to the combination load.
func (p *SignaturePayload) Combined() int { return len(p.Sigs) }

// Frame is one unit of air time.
type Frame struct {
	Kind FrameKind
	Src  NodeID
	// Dst is the addressed node, or Broadcast. Addressing is advisory: every
	// node in range observes the frame; MAC engines filter.
	Dst   NodeID
	Bytes int
	Rate  Rate
	// Duration overrides the computed air time when non-zero (signatures,
	// OFDM control symbols, and the USRP PHY use explicit durations).
	Duration sim.Time
	// Payload carries protocol state (queue reports, packets, signatures).
	Payload any
	// NAV, when non-zero, is the absolute time until which the sender
	// reserves the medium (802.11 duration field). DOMINO sets it to the end
	// of the contention-free period so coexisting DCF nodes defer (§5,
	// Fig 15); overhearing MACs should honour max(ACK protection, NAV).
	NAV sim.Time
	// Handle names the MAC packet a Data frame carries (mac.Packet.Handle);
	// an Ack echoes the Handle of the Data frame it acknowledges, so the
	// sender matches it to the packet it holds. Zero on other frames. The
	// PHY never reads it.
	Handle uint32
	// ObsSpan is the causal span this frame belongs to (obs layer); the
	// medium probe copies it onto tx_start/tx_end records so airtime hangs
	// off the right slot/epoch/attempt in trace trees. 0 when tracing is
	// off — the PHY itself never reads it.
	ObsSpan int64
}

// AirTime returns the frame's on-air duration.
func (f *Frame) AirTime() sim.Time {
	if f.Duration > 0 {
		return f.Duration
	}
	return Airtime(f.Bytes, f.Rate)
}

// Listener receives medium events for one node. Callbacks run inside the
// simulation event loop; implementations must not block.
type Listener interface {
	// CarrierChanged fires when energy-based carrier sensing at the node
	// transitions between idle and busy. A node's own transmission does not
	// trigger CarrierChanged (engines know when they transmit).
	CarrierChanged(busy bool)
	// FrameReceived fires at the end of every frame whose received power at
	// this node reaches the delivery floor. ok reports whether the frame was
	// decodable: SINR above the rate threshold for data frames, the
	// signature-detection rule for Signature frames. det carries signature
	// detection detail (nil for non-signature frames).
	FrameReceived(f *Frame, ok bool, det *SignatureDetection)
}

// SignatureDetection reports the conditions a Signature frame experienced at
// a receiver, for MAC engines that want detection detail beyond ok.
type SignatureDetection struct {
	// Combined is the peak number of signatures simultaneously in the air
	// (summed over all overlapping signature frames) during this frame.
	Combined int
}

// Detector decides whether a signature broadcast is detected given the peak
// combined-signature count it collided with. Probability tables come from the
// chip-level Monte Carlo in internal/gold (paper Fig 9).
type Detector func(combined int) float64

// DefaultDetector encodes the paper's USRP-measured detection curve (Fig 9):
// essentially perfect up to 4 combined signatures — the operating limit the
// paper picks — then degrading. internal/gold's idealised chip-level Monte
// Carlo upper-bounds this table (gold.TestDetectionCurveMatchesDefault); the
// shortfall beyond 4 reflects hardware effects (CFO, phase noise,
// quantisation) the Monte Carlo omits.
func DefaultDetector(combined int) float64 {
	table := []float64{1, 1, 1, 1, 0.998, 0.93, 0.80, 0.65}
	if combined < len(table) {
		return table[combined]
	}
	return 0.5
}

// Config collects the medium's tunable parameters. The zero value is not
// valid; use DefaultConfig.
type Config struct {
	// NoiseDBm is the thermal noise floor (-174 dBm/Hz + 10·log10(20 MHz) +
	// 7 dB noise figure ≈ -94 dBm).
	NoiseDBm float64
	// CSThreshDBm is the energy level above which carrier sense reports busy.
	CSThreshDBm float64
	// DeliverFloorDBm is the weakest received power that still produces a
	// FrameReceived callback; weaker transmissions count only as interference.
	DeliverFloorDBm float64
	// SigSINRdB is the SINR (against non-signature interference) a correlator
	// needs to detect a signature; the ~21 dB spreading gain of a 127-chip
	// Gold code puts this far below the data threshold.
	SigSINRdB float64
	// Detector is the combined-signature detection curve.
	Detector Detector
	// FalsePositiveRate is the per-listen probability that a correlator
	// reports a signature that was not sent (paper: below 1%). Zero disables.
	FalsePositiveRate float64
}

// DefaultConfig returns the parameter set used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		NoiseDBm:        -94,
		CSThreshDBm:     -85,
		DeliverFloorDBm: -94,
		SigSINRdB:       -10,
		Detector:        DefaultDetector,
	}
}

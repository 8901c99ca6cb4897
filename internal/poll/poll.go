// Package poll holds the pluggable polling schemes. A Poller owns the
// slot-in-the-schedule shape Rapid OFDM Polling occupies in DOMINO: it lays
// the AP's clients out over subchannels and rounds, reports how many
// successive poll rounds one cycle takes (the schedule reserves rounds × the
// ROP slot duration), and decodes one complete cycle into per-client backlog
// reports.
//
// Three schemes register here. The paper's ROP (§3.1, the default) is one
// 24-subchannel control symbol; A2P-style grouped polling generalises it to
// RSS-sorted groups of ≤24 clients polled across successive rounds (hundreds
// of clients per AP), so ROP is the grouped poller's one-group case. UORA-style
// random access trades the assignment handshake for OBO contention over
// RA-RUs. Engines resolve a poller purely by name, so a fourth scheme is one
// Registry.MustRegister call — no edits to internal/domino.
package poll

import (
	"encoding/json"
	"errors"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/registry"
	"repro/internal/sim"
)

// Context carries everything one polling cycle reads: ground-truth backlogs,
// the channel view at the AP, the run's RNG and the observability hooks. The
// decode is an AP-side abstraction: clients do not
// explicitly answer in the event kernel; the poller judges each report from
// the RSS/noise figures.
type Context struct {
	// Queue returns a client's true uplink backlog.
	Queue func(phy.NodeID) int
	// RSSAtAP returns the received power (dBm) of a client's report at the AP.
	RSSAtAP func(phy.NodeID) float64
	// NoiseDBm is the medium's noise floor.
	NoiseDBm float64
	// Rng is the run's deterministic RNG. Deterministic pollers must not draw
	// from it (the default ROP never does — golden traces pin that), but
	// contention pollers like UORA consume draws in assignment order.
	Rng *rand.Rand
	// Tracer receives one KindROPPoll record per judged report when non-nil;
	// Now timestamps them and Span parents them to the poll that solicited
	// the cycle (0 when spans are off).
	Tracer obs.Tracer
	Now    sim.Time
	Span   int64
}

// Result is the outcome of one complete polling cycle at the AP. Values and
// Failed partition the assigned clients exactly: every assigned client
// appears in exactly one of them (a contention poller lists clients that
// never won a transmit opportunity this cycle under Failed).
type Result struct {
	// Values holds the decoded (possibly saturated) queue sizes.
	Values map[phy.NodeID]int
	// Failed lists clients whose report did not decode this cycle.
	Failed []phy.NodeID
	// Rounds is how many poll rounds the cycle used.
	Rounds int
	// Collisions counts reports lost to random-access collisions (0 for
	// scheduled pollers).
	Collisions int
}

// Poller is one polling scheme instance, owned by a single AP.
type Poller interface {
	// Assign (re)computes the client → subchannel/round layout. The engine
	// calls it at construction and again whenever the AP's client set
	// churns; group membership is recomputed from scratch each time.
	Assign(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64)
	// Clients returns the currently assigned clients in layout order.
	Clients() []phy.NodeID
	// Rounds is how many successive poll rounds one cycle takes (≥ 1). It
	// must stay constant between Assign calls: the schedule reserves
	// rounds × the per-round slot gap and cannot renegotiate mid-batch.
	Rounds() int
	// Poll decodes one complete polling cycle.
	Poll(ctx Context) Result
}

// Descriptor is one registered polling scheme.
type Descriptor struct {
	// Name is the canonical scheme name ("ROP"). Lookup is case-insensitive.
	Name string
	// Aliases are additional accepted names.
	Aliases []string
	// Summary is a one-line description for CLI listings.
	Summary string
	// MaxClients is the per-AP client ceiling one instance supports
	// (0 = unbounded). The engine assigns the strongest MaxClients and
	// surfaces the rest (Engine.UnpolledClients) instead of panicking.
	MaxClients int
	// DefaultConfig returns a pointer to a fresh knob struct, or nil for
	// pollers without knobs. Build overlays a spec's
	// scheme_config.PollerConfig onto it (registry.Overlay), so validation
	// and the run read the knobs through the same call.
	DefaultConfig func() any
	// Build constructs one per-AP instance. cfg is the (possibly overlaid)
	// DefaultConfig value — nil when DefaultConfig is nil.
	Build func(cfg any) (Poller, error)
}

// Registry holds every polling scheme; an empty name means the paper's ROP.
var Registry = registry.New("poller", "ROP", func(d *Descriptor) (string, []string, error) {
	if d.Build == nil {
		return d.Name, d.Aliases, errors.New("Build is required")
	}
	return d.Name, d.Aliases, nil
})

// Build constructs one instance of the named poller ("" for the default),
// overlaying rawCfg — a JSON object of its knob-struct fields, may be empty —
// on its default config.
func Build(name string, rawCfg json.RawMessage) (Poller, error) {
	d, err := Registry.Resolve(name)
	if err != nil {
		return nil, err
	}
	var cfg any
	if d.DefaultConfig != nil {
		cfg = d.DefaultConfig()
	}
	if err := registry.Overlay(cfg, rawCfg, "poller "+d.Name, "knob"); err != nil {
		return nil, err
	}
	return d.Build(cfg)
}

// sortByRSS returns clients sorted by descending RSS at the AP (stable, so
// equal-power clients keep their input order — the deterministic tiebreak
// every layout in this package shares).
func sortByRSS(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64) []phy.NodeID {
	sorted := append([]phy.NodeID(nil), clients...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return rssAtAP(sorted[a]) > rssAtAP(sorted[b])
	})
	return sorted
}

// emitReport appends one KindROPPoll record for a judged report: Node the
// client, Extra the subchannel (or RA-RU) index, Value/OK the decode
// outcome, Parent the soliciting poll's span.
func emitReport(ctx Context, c phy.NodeID, subchannel int, value int, ok bool) {
	if ctx.Tracer == nil {
		return
	}
	rec := obs.Rec(ctx.Now, obs.KindROPPoll)
	rec.Node = int(c)
	rec.Extra = int64(subchannel)
	rec.Parent = ctx.Span
	if ok {
		rec.Value = int64(value)
		rec.OK = true
	}
	ctx.Tracer.Emit(rec)
}

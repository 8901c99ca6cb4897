// Package poll is the pluggable polling-scheme registry — the third
// self-registering registry after schemes (internal/scheme) and strict
// schedulers (internal/strict). A Poller owns the slot-in-the-schedule shape
// Rapid OFDM Polling occupies in DOMINO: it lays the AP's clients out over
// subchannels and rounds, reports how many successive poll rounds one cycle
// takes (the schedule reserves rounds × the ROP slot duration), and decodes
// one complete cycle into per-client backlog reports.
//
// The paper's ROP registers itself as the default (internal/rop); this
// package adds two scalable variants: A2P-style multi-round grouped polling
// (groups of ≤24 clients polled across successive rounds — hundreds of
// clients per AP) and UORA-style random access (OBO contention over RA-RUs
// for unscheduled joiners). Engines resolve a poller purely by name, so a
// fourth scheme is one MustRegister call — no edits to internal/domino.
package poll

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Context carries everything one polling cycle reads: ground-truth backlogs,
// the channel view at the AP, the run's RNG and the observability hooks. The
// decode is an AP-side abstraction (as in internal/rop): clients do not
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
	// Name is the registered scheme name.
	Name() string
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
	// State returns the poller's checkpointable counters (nil for stateless
	// pollers). The counters ride the scheme.Checkpointer audit so run
	// checkpoint/restore verifies the poller replayed identically.
	State() map[string]int64
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
	// pollers without knobs. Spec files overlay JSON onto it
	// (scheme_config.PollerConfig); speclint validates the keys against it.
	DefaultConfig func() any
	// Build constructs one per-AP instance. cfg is the (possibly overlaid)
	// DefaultConfig value — nil when DefaultConfig is nil.
	Build func(cfg any) (Poller, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]*Descriptor{}
	// canonical lists canonical names only, for Names().
	canonical []string
)

// Register adds a polling scheme to the registry. It fails on empty or
// duplicate names (aliases included) and on a missing Build function.
func Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("poll: Register with empty Name")
	}
	if d.Build == nil {
		return fmt.Errorf("poll: poller %s: Build is required", d.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	keys := append([]string{d.Name}, d.Aliases...)
	for _, k := range keys {
		if prev, ok := registry[strings.ToLower(k)]; ok {
			return fmt.Errorf("poll: poller %q already registered (by %s)", k, prev.Name)
		}
	}
	desc := d
	for _, k := range keys {
		registry[strings.ToLower(k)] = &desc
	}
	canonical = append(canonical, d.Name)
	sort.Strings(canonical)
	return nil
}

// MustRegister is Register for init-time use; it panics on conflict.
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Unregister removes a poller and its aliases; tests use it to clean up toy
// registrations. Unknown names are a no-op.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	d, ok := registry[strings.ToLower(name)]
	if !ok {
		return
	}
	delete(registry, strings.ToLower(d.Name))
	for _, a := range d.Aliases {
		delete(registry, strings.ToLower(a))
	}
	for i, n := range canonical {
		if n == d.Name {
			canonical = append(canonical[:i], canonical[i+1:]...)
			break
		}
	}
}

// Lookup resolves a poller name (canonical or alias, case-insensitive).
func Lookup(name string) (*Descriptor, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := registry[strings.ToLower(name)]
	return d, ok
}

// Names returns the canonical registered poller names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), canonical...)
}

// Build constructs one instance of the named poller, overlaying rawCfg (a
// JSON object of knob-struct fields, may be empty) on its default config.
// The error for an unknown name lists what is registered.
func Build(name string, rawCfg json.RawMessage) (Poller, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("poll: unknown poller %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	var cfg any
	if d.DefaultConfig != nil {
		cfg = d.DefaultConfig()
		if len(rawCfg) > 0 {
			if err := json.Unmarshal(rawCfg, cfg); err != nil {
				return nil, fmt.Errorf("poll: %s config: %v", d.Name, err)
			}
		}
	} else if len(rawCfg) > 0 && string(rawCfg) != "{}" && string(rawCfg) != "null" {
		return nil, fmt.Errorf("poll: poller %s has no knobs; drop the poller config object", d.Name)
	}
	return d.Build(cfg)
}

// sortByRSS returns clients sorted by descending RSS at the AP (stable, so
// equal-power clients keep their input order — the deterministic tiebreak
// every layout in this package shares with rop.Assign).
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

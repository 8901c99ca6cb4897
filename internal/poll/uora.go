// UORA-style random-access polling (802.11ax OFDMA random access): instead
// of a scheduled subchannel per client, each poll round offers RA-RUs that
// clients contend for with an OFDMA back-off (OBO) countdown. A client
// decrements its OBO by the number of RA-RUs each round and transmits on a
// random RU once it reaches zero; two clients on the same RU collide, double
// their contention window and redraw. No assignment handshake is needed, so
// unscheduled joiners can report the moment they associate — the trade is
// collisions instead of rounds.

package poll

import (
	"fmt"

	"repro/internal/ofdm"
	"repro/internal/phy"
)

var uoraLayout = ofdm.DefaultLayout()

// UORAConfig parameterises the random-access poller.
type UORAConfig struct {
	// RARUs is the number of random-access RUs per round, at most the
	// control symbol's 24 subchannels.
	RARUs int `domain:"1..24"`
	// OCWMin/OCWMax bound the OFDMA contention window: a fresh station draws
	// its OBO from [0, OCWMin]; each collision doubles the window
	// (2·OCW + 1) up to OCWMax. 127 is the largest window 802.11ax can
	// signal: OCW is 2^EOCW − 1 with a 3-bit EOCW.
	OCWMin int `domain:"0..127"`
	OCWMax int `domain:"0..127"`
	// RoundsPerCycle fixes how many RA rounds one polling cycle spans. It is
	// a constant so the schedule's reserved poll gap stays deterministic;
	// clients that never win a round report next cycle.
	RoundsPerCycle int `domain:"1..32"`
	// SNRFloorDB is the decode floor for an uncontended report.
	SNRFloorDB float64 `domain:"0..40"`
}

// uoraStation is one client's persistent contention state.
type uoraStation struct {
	obo int // remaining countdown; -1 until first drawn
	ocw int // current contention window
}

// UORA is the random-access poller.
type UORA struct {
	cfg      UORAConfig
	clients  []phy.NodeID
	stations map[phy.NodeID]*uoraStation
}

// Assign implements Poller: random access needs no layout — the client list
// only fixes the deterministic contention order. Stations keep their
// countdown across churn; departed clients drop their state.
func (p *UORA) Assign(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64) {
	p.clients = sortByRSS(clients, rssAtAP)
	if p.stations == nil {
		p.stations = make(map[phy.NodeID]*uoraStation, len(clients))
	}
	seen := make(map[phy.NodeID]bool, len(p.clients))
	for _, c := range p.clients {
		seen[c] = true
		if p.stations[c] == nil {
			p.stations[c] = &uoraStation{obo: -1, ocw: p.cfg.OCWMin}
		}
	}
	for c := range p.stations {
		if !seen[c] {
			delete(p.stations, c)
		}
	}
}

// Clients implements Poller.
func (p *UORA) Clients() []phy.NodeID { return p.clients }

// Rounds implements Poller.
func (p *UORA) Rounds() int { return p.cfg.RoundsPerCycle }

// Poll implements Poller: RoundsPerCycle rounds of OBO contention. All RNG
// draws happen in assignment order, so the cycle is deterministic given the
// engine's RNG state.
func (p *UORA) Poll(ctx Context) Result {
	res := Result{Values: make(map[phy.NodeID]int, len(p.clients)), Rounds: p.cfg.RoundsPerCycle}
	nRU := p.cfg.RARUs
	floor := p.cfg.SNRFloorDB
	reported := make(map[phy.NodeID]bool, len(p.clients))
	contenders := make([][]phy.NodeID, nRU)
	for round := 0; round < p.cfg.RoundsPerCycle; round++ {
		for i := range contenders {
			contenders[i] = contenders[i][:0]
		}
		for _, c := range p.clients {
			if reported[c] {
				continue
			}
			st := p.stations[c]
			if st.obo < 0 {
				st.obo = ctx.Rng.Intn(st.ocw + 1)
			}
			st.obo -= nRU
			if st.obo > 0 {
				continue
			}
			ru := ctx.Rng.Intn(nRU)
			contenders[ru] = append(contenders[ru], c)
		}
		for ru, cs := range contenders {
			switch {
			case len(cs) == 0:
			case len(cs) == 1:
				c := cs[0]
				st := p.stations[c]
				if ctx.RSSAtAP(c)-ctx.NoiseDBm >= floor {
					v := uoraLayout.EncodeQueue(ctx.Queue(c))
					res.Values[c] = v
					reported[c] = true
					st.ocw = p.cfg.OCWMin
					st.obo = -1
					emitReport(ctx, c, ru, v, true)
				} else {
					// The report was clean of collisions but below the decode
					// floor: back off like a collision and retry.
					p.backoff(ctx, st)
					emitReport(ctx, c, ru, 0, false)
				}
			default:
				// Collision: every contender loses, doubles its window and
				// redraws.
				res.Collisions += len(cs)
				for _, c := range cs {
					p.backoff(ctx, p.stations[c])
					emitReport(ctx, c, ru, 0, false)
				}
			}
		}
	}
	// Clients that never got a clean report through this cycle failed it;
	// together with Values this partitions the assignment exactly once.
	for _, c := range p.clients {
		if !reported[c] {
			res.Failed = append(res.Failed, c)
		}
	}
	return res
}

// backoff applies the post-collision window doubling and redraw.
func (p *UORA) backoff(ctx Context, st *uoraStation) {
	st.ocw = 2*st.ocw + 1
	if st.ocw > p.cfg.OCWMax {
		st.ocw = p.cfg.OCWMax
	}
	st.obo = ctx.Rng.Intn(st.ocw + 1)
}

func init() {
	Registry.MustRegister(Descriptor{
		Name:    "UORA",
		Aliases: []string{"random-access", "ra"},
		DefaultConfig: func() any {
			// 8 RA-RUs over 4 rounds; 7 and 31 are 802.11ax's default
			// OCWmin and OCWmax.
			return &UORAConfig{RARUs: 8, OCWMin: 7, OCWMax: 31, RoundsPerCycle: 4, SNRFloorDB: 4}
		},
		Build: func(cfg any) (Poller, error) {
			c := cfg.(*UORAConfig)
			if c.OCWMax < c.OCWMin {
				return nil, fmt.Errorf("poller UORA OCWMax %d below OCWMin %d", c.OCWMax, c.OCWMin)
			}
			return &UORA{cfg: *c}, nil
		},
	})
}

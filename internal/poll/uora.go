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

// UORA is the random-access poller. Its per-client state is indexed by
// assignment position.
type UORA struct {
	cfg      UORAConfig
	clients  []phy.NodeID
	stations []uoraStation
	// reported and contenders are one cycle's scratch, reused cycle to
	// cycle: whether each client's report got through, and the clients
	// transmitting on each RA-RU in the current round.
	reported   []bool
	contenders [][]int
}

// Assign implements Poller: random access needs no layout — the client list
// only fixes the deterministic contention order. Every station starts with
// its window at OCWMin and its countdown undrawn.
func (p *UORA) Assign(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64) {
	p.clients = sortByRSS(clients, rssAtAP)
	p.stations = make([]uoraStation, len(p.clients))
	for i := range p.stations {
		p.stations[i] = uoraStation{obo: -1, ocw: p.cfg.OCWMin}
	}
	p.reported = make([]bool, len(p.clients))
	p.contenders = make([][]int, p.cfg.RARUs)
}

// Rounds implements Poller.
func (p *UORA) Rounds() int { return p.cfg.RoundsPerCycle }

// AppendReports implements Poller: RoundsPerCycle rounds of OBO contention,
// reported round by round in RA-RU order. All RNG draws happen in
// assignment order, so the cycle is deterministic given the engine's RNG
// state. Clients that never get a clean report through this cycle failed
// it.
func (p *UORA) AppendReports(dst []Report, ctx Context) []Report {
	nRU := p.cfg.RARUs
	floor := p.cfg.SNRFloorDB
	clear(p.reported)
	for round := 0; round < p.cfg.RoundsPerCycle; round++ {
		for i := range p.contenders {
			p.contenders[i] = p.contenders[i][:0]
		}
		for i := range p.clients {
			if p.reported[i] {
				continue
			}
			st := &p.stations[i]
			if st.obo < 0 {
				st.obo = ctx.Rng.Intn(st.ocw + 1)
			}
			st.obo -= nRU
			if st.obo > 0 {
				continue
			}
			ru := ctx.Rng.Intn(nRU)
			p.contenders[ru] = append(p.contenders[ru], i)
		}
		for ru, cs := range p.contenders {
			switch {
			case len(cs) == 0:
			case len(cs) == 1:
				i := cs[0]
				c, st := p.clients[i], &p.stations[i]
				if ctx.RSSAtAP(c)-ctx.NoiseDBm >= floor {
					p.reported[i] = true
					st.ocw = p.cfg.OCWMin
					st.obo = -1
					dst = append(dst, Report{Client: c, Subchannel: ru, Value: uoraLayout.EncodeQueue(ctx.Queue(c)), OK: true})
				} else {
					// The report was clean of collisions but below the decode
					// floor: back off like a collision and retry.
					p.backoff(ctx, st)
					dst = append(dst, Report{Client: c, Subchannel: ru})
				}
			default:
				// Collision: every contender loses, doubles its window and
				// redraws.
				for _, i := range cs {
					p.backoff(ctx, &p.stations[i])
					dst = append(dst, Report{Client: p.clients[i], Subchannel: ru, Collided: true})
				}
			}
		}
	}
	return dst
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

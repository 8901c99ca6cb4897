// Grouped polling, after A2P: the AP polls its clients in RSS-sorted groups
// of at most one control symbol's worth of subchannels, one group per round
// across successive rounds of the same cycle. Each round applies the paper's
// ROP decode rule (§3.1): a report decodes when its SNR clears the 4 dB floor
// and no adjacent subchannel is more than 38 dB stronger — the 3-guard
// tolerance of the internal/ofdm Fig 6 measurement. Sorting by RSS keeps
// adjacent subchannels at similar powers, so extremes end up far apart. The
// multi-round layout is what lifts the per-AP ceiling from 24 clients to
// hundreds; ROP itself is the one-group case, registered below with a
// 24-client ceiling and no knobs. Group membership is recomputed from
// scratch on every Assign, so churn in the client set re-balances the
// groups.

package poll

import (
	"fmt"

	"repro/internal/ofdm"
	"repro/internal/phy"
)

// a2pLayout is the shared control-symbol layout (Table 1): 24 subchannels,
// queue reports saturating at 63.
var a2pLayout = ofdm.DefaultLayout()

// A2PConfig parameterises the grouped poller.
type A2PConfig struct {
	// GroupSize is how many clients one round polls (≤ the control symbol's
	// 24 subchannels; 0 means 24).
	GroupSize int
	// SNRFloorDB is the per-report decode floor (0 means the measured 4 dB).
	SNRFloorDB float64
	// ToleranceDB is the adjacent-subchannel RSS difference one round
	// tolerates (0 means the Fig 6 measurement's 38 dB).
	ToleranceDB float64
}

func (c *A2PConfig) groupSize() int {
	if c == nil || c.GroupSize <= 0 {
		return a2pLayout.NumSubchannels()
	}
	return c.GroupSize
}

func (c *A2PConfig) snrFloor() float64 {
	if c == nil || c.SNRFloorDB == 0 {
		return 4
	}
	return c.SNRFloorDB
}

func (c *A2PConfig) tolerance() float64 {
	if c == nil || c.ToleranceDB == 0 {
		return 38
	}
	return c.ToleranceDB
}

// A2P is the grouped multi-round poller.
type A2P struct {
	cfg A2PConfig
	// clients is the full RSS-sorted assignment; groups are consecutive
	// runs of groupSize, so adjacent subchannels within a round carry
	// similar powers.
	clients []phy.NodeID
}

// Assign implements Poller: sort by RSS, cut into groups of groupSize.
func (p *A2P) Assign(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64) {
	p.clients = sortByRSS(clients, rssAtAP)
}

// Clients implements Poller.
func (p *A2P) Clients() []phy.NodeID { return p.clients }

// Rounds implements Poller: one round per group, at least one.
func (p *A2P) Rounds() int {
	g := p.cfg.groupSize()
	n := (len(p.clients) + g - 1) / g
	if n < 1 {
		n = 1
	}
	return n
}

// Poll implements Poller: every group reports in its own round; within a
// round the decode rule is ROP's — own SNR above the floor and no adjacent
// subchannel more than ToleranceDB stronger.
func (p *A2P) Poll(ctx Context) Result {
	res := Result{Values: make(map[phy.NodeID]int, len(p.clients)), Rounds: p.Rounds()}
	g := p.cfg.groupSize()
	floor, tol := p.cfg.snrFloor(), p.cfg.tolerance()
	for start := 0; start < len(p.clients); start += g {
		end := start + g
		if end > len(p.clients) {
			end = len(p.clients)
		}
		group := p.clients[start:end]
		for i, c := range group {
			rss := ctx.RSSAtAP(c)
			ok := rss-ctx.NoiseDBm >= floor
			if i > 0 && ctx.RSSAtAP(group[i-1])-rss > tol {
				ok = false
			}
			if i+1 < len(group) && ctx.RSSAtAP(group[i+1])-rss > tol {
				ok = false
			}
			if ok {
				v := a2pLayout.EncodeQueue(ctx.Queue(c))
				res.Values[c] = v
				emitReport(ctx, c, i, v, true)
			} else {
				res.Failed = append(res.Failed, c)
				emitReport(ctx, c, i, 0, false)
			}
		}
	}
	return res
}

// State implements Poller: A2P is stateless between cycles.
func (p *A2P) State() map[string]int64 { return nil }

func init() {
	Registry.MustRegister(Descriptor{
		Name:       "ROP",
		Summary:    "the paper's Rapid OFDM Polling: one 24-subchannel control symbol per cycle (§3.1)",
		MaxClients: a2pLayout.NumSubchannels(),
		Build: func(any) (Poller, error) {
			return &A2P{}, nil
		},
	})
	Registry.MustRegister(Descriptor{
		Name:    "A2P",
		Aliases: []string{"grouped"},
		Summary: "multi-round grouped OFDMA polling: RSS-sorted groups of ≤24 clients per round, scales one AP to hundreds of clients",
		DefaultConfig: func() any {
			return &A2PConfig{}
		},
		Build: func(cfg any) (Poller, error) {
			c, _ := cfg.(*A2PConfig)
			if c == nil {
				c = &A2PConfig{}
			}
			if c.GroupSize < 0 || c.GroupSize > a2pLayout.NumSubchannels() {
				return nil, fmt.Errorf("poller A2P GroupSize %d out of range (1..%d, 0 for the default)",
					c.GroupSize, a2pLayout.NumSubchannels())
			}
			return &A2P{cfg: *c}, nil
		},
	})
}

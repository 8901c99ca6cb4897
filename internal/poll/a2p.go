// Grouped polling, after A2P: the AP polls its clients in RSS-sorted groups
// of at most one control symbol's worth of subchannels, one group per round
// across successive rounds of the same cycle. Each round applies the paper's
// ROP decode rule (§3.1): a report decodes when its SNR clears the 4 dB floor
// and no adjacent subchannel is more than 38 dB stronger — the 3-guard
// tolerance of the internal/ofdm Fig 6 measurement. Sorting by RSS keeps
// adjacent subchannels at similar powers, so extremes end up far apart. The
// multi-round layout is what lifts the per-AP ceiling from 24 clients to
// hundreds; ROP itself is the one-group case, registered below with a
// 24-client ceiling and no knobs.

package poll

import (
	"repro/internal/ofdm"
	"repro/internal/phy"
)

// a2pLayout is the shared control-symbol layout (Table 1): 24 subchannels,
// queue reports saturating at 63.
var a2pLayout = ofdm.DefaultLayout()

// A2PConfig parameterises the grouped poller.
type A2PConfig struct {
	// GroupSize is how many clients one round polls, at most the control
	// symbol's 24 subchannels.
	GroupSize int `domain:"1..24"`
	// SNRFloorDB is the per-report decode floor.
	SNRFloorDB float64 `domain:"0..40"`
	// ToleranceDB is the adjacent-subchannel RSS difference one round
	// tolerates.
	ToleranceDB float64 `domain:"0..100"`
}

// defaultA2PConfig, also ROP's fixed one: a full control symbol per round,
// the measured 4 dB floor and the Fig 6 measurement's 38 dB tolerance.
func defaultA2PConfig() A2PConfig {
	return A2PConfig{GroupSize: a2pLayout.NumSubchannels(), SNRFloorDB: 4, ToleranceDB: 38}
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

// Rounds implements Poller: one round per group, at least one.
func (p *A2P) Rounds() int {
	g := p.cfg.GroupSize
	n := (len(p.clients) + g - 1) / g
	if n < 1 {
		n = 1
	}
	return n
}

// AppendReports implements Poller: every group reports in its own round;
// within a round the decode rule is ROP's — own SNR above the floor and no
// adjacent subchannel more than ToleranceDB stronger. Reports follow the
// layout order.
func (p *A2P) AppendReports(dst []Report, ctx Context) []Report {
	g := p.cfg.GroupSize
	floor, tol := p.cfg.SNRFloorDB, p.cfg.ToleranceDB
	for start := 0; start < len(p.clients); start += g {
		group := p.clients[start:min(start+g, len(p.clients))]
		for i, c := range group {
			rss := ctx.RSSAtAP(c)
			ok := rss-ctx.NoiseDBm >= floor
			if i > 0 && ctx.RSSAtAP(group[i-1])-rss > tol {
				ok = false
			}
			if i+1 < len(group) && ctx.RSSAtAP(group[i+1])-rss > tol {
				ok = false
			}
			r := Report{Client: c, Subchannel: i, OK: ok}
			if ok {
				r.Value = a2pLayout.EncodeQueue(ctx.Queue(c))
			}
			dst = append(dst, r)
		}
	}
	return dst
}

func init() {
	Registry.MustRegister(Descriptor{
		Name:       "ROP",
		MaxClients: a2pLayout.NumSubchannels(),
		Build: func(any) (Poller, error) {
			return &A2P{cfg: defaultA2PConfig()}, nil
		},
	})
	Registry.MustRegister(Descriptor{
		Name:    "A2P",
		Aliases: []string{"grouped"},
		DefaultConfig: func() any {
			c := defaultA2PConfig()
			return &c
		},
		Build: func(cfg any) (Poller, error) {
			return &A2P{cfg: *cfg.(*A2PConfig)}, nil
		},
	})
}

// Package rop implements the protocol side of Rapid OFDM Polling (paper
// §3.1): per-client subchannel assignment at association time and the AP-side
// decode of one polling round. The physical-layer behaviour (inter-subchannel
// leakage versus guard width and RSS difference) is measured by internal/ofdm;
// this package applies the calibrated tolerance — 3 guard subcarriers survive
// up to a 38 dB RSS difference between adjacent subchannels — as the decode
// rule, and assigns subchannels so that extreme pairs are never adjacent.
package rop

import (
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/sim"
)

// ToleranceDB is the adjacent-subchannel RSS difference the default layout
// (3 guard subcarriers) tolerates, from the internal/ofdm Fig 6 measurement.
const ToleranceDB = 38

// MaxClients is the number of subchannels one polling round offers. APs with
// more clients poll in sets (paper §3.5).
const MaxClients = 24

// defaultLayout is the Table 1 control-symbol layout, hoisted so the
// per-round decode path rebuilds nothing.
var defaultLayout = ofdm.DefaultLayout()

// Assignment maps an AP's clients to subchannels.
type Assignment struct {
	// Subchannel[i] is the subchannel of client Clients[i].
	Clients     []phy.NodeID
	Subchannels []int
}

// Assign allocates subchannels to the clients of one AP. Clients are sorted
// by RSS at the AP and placed in that order, so adjacent subchannels carry
// similar powers and the >38 dB extremes end up far apart — the mitigation
// the paper prescribes for extreme cases. At most MaxClients are assigned;
// callers with more clients must poll in sets.
func Assign(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64) Assignment {
	if len(clients) > MaxClients {
		panic("rop: more clients than subchannels; poll in sets")
	}
	sorted := append([]phy.NodeID(nil), clients...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return rssAtAP(sorted[a]) > rssAtAP(sorted[b])
	})
	a := Assignment{Clients: sorted}
	for i := range sorted {
		a.Subchannels = append(a.Subchannels, i)
	}
	return a
}

// Subchannel returns the subchannel of a client, or -1 if unassigned.
func (a Assignment) Subchannel(c phy.NodeID) int {
	for i, cl := range a.Clients {
		if cl == c {
			return a.Subchannels[i]
		}
	}
	return -1
}

// Result is the outcome of one polling round at the AP.
type Result struct {
	// Values holds the decoded (possibly saturated at 63) queue sizes for
	// clients whose report decoded.
	Values map[phy.NodeID]int
	// Failed lists clients whose subchannel was overwhelmed.
	Failed []phy.NodeID
}

// Decode evaluates one polling round: every assigned client reports its queue
// length simultaneously; a client's report fails when an adjacent subchannel
// carries a signal more than ToleranceDB stronger, or when its own SNR at the
// AP is below the 4 dB floor. queue gives each client's true backlog; snrAtAP
// gives the AP-side SNR of each client's report.
func Decode(a Assignment, queue func(phy.NodeID) int, rssAtAP func(phy.NodeID) float64,
	noiseDBm float64, rng *rand.Rand) Result {
	res := Result{Values: make(map[phy.NodeID]int, len(a.Clients))}
	for i, c := range a.Clients {
		rss := rssAtAP(c)
		ok := rss-noiseDBm >= 4 // the measured SNR floor (§3.1)
		if i > 0 && rssAtAP(a.Clients[i-1])-rss > ToleranceDB {
			ok = false
		}
		if i+1 < len(a.Clients) && rssAtAP(a.Clients[i+1])-rss > ToleranceDB {
			ok = false
		}
		if !ok {
			res.Failed = append(res.Failed, c)
			continue
		}
		res.Values[c] = defaultLayout.EncodeQueue(queue(c))
	}
	return res
}

// DecodeInto is Decode reusing caller-owned scratch: res.Values is cleared
// and refilled, res.Failed truncated and re-appended, so a warm Result makes
// the decode hot path allocation-free (pinned by TestDecodeIntoZeroAllocs).
// The engine keeps using Decode — its results cross an async wired-latency
// boundary and must not share scratch between polls.
func DecodeInto(res *Result, a Assignment, queue func(phy.NodeID) int,
	rssAtAP func(phy.NodeID) float64, noiseDBm float64) {
	if res.Values == nil {
		res.Values = make(map[phy.NodeID]int, len(a.Clients))
	}
	for k := range res.Values {
		delete(res.Values, k)
	}
	res.Failed = res.Failed[:0]
	for i, c := range a.Clients {
		rss := rssAtAP(c)
		ok := rss-noiseDBm >= 4
		if i > 0 && rssAtAP(a.Clients[i-1])-rss > ToleranceDB {
			ok = false
		}
		if i+1 < len(a.Clients) && rssAtAP(a.Clients[i+1])-rss > ToleranceDB {
			ok = false
		}
		if !ok {
			res.Failed = append(res.Failed, c)
			continue
		}
		res.Values[c] = defaultLayout.EncodeQueue(queue(c))
	}
}

// DecodeObserved is Decode plus observability: when tr is non-nil it emits
// one KindROPPoll record per assigned client in assignment order (Node the
// client, Value the decoded backlog, Extra the subchannel, OK whether the
// report symbol decoded), timestamped now. Iteration follows a.Clients, not
// the result map, so the record order is deterministic. span is the causal
// span of the poll that solicited the reports (0 when spans are off); it
// becomes each record's Parent so polls hang off the trigger-chain tree.
func DecodeObserved(a Assignment, queue func(phy.NodeID) int, rssAtAP func(phy.NodeID) float64,
	noiseDBm float64, rng *rand.Rand, tr obs.Tracer, now sim.Time, span int64) Result {
	res := Decode(a, queue, rssAtAP, noiseDBm, rng)
	if tr != nil {
		for i, c := range a.Clients {
			rec := obs.Rec(now, obs.KindROPPoll)
			rec.Node = int(c)
			rec.Extra = int64(a.Subchannels[i])
			rec.Parent = span
			if v, ok := res.Values[c]; ok {
				rec.Value = int64(v)
				rec.OK = true
			}
			tr.Emit(rec)
		}
	}
	return res
}

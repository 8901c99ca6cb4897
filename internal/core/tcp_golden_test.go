package core

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tcpGolden pins one TCP run's outcomes: the hash covers every link's goodput
// (exact float text), both mean delays and each flow's Retransmits,
// Timeouts, FastRecovered and AckedSegments; the readable fields say what
// moved when the hash does.
type tcpGolden struct {
	scheme   Scheme
	seed     int64
	hash     string
	dataMbps string
	delay    sim.Time
	// Summed over the run's flows.
	retransmits, timeouts, fastRecovered int
	acked                                uint64
}

// tcpGoldens were measured before TCPFlow parked its token clock, when the
// clock ticked every segment interval for the whole run; a parked clock
// skips only ticks that change nothing, so every outcome must stay equal.
var tcpGoldens = []tcpGolden{
	{DCF, 1, "23abc99bbf846cf3", "19.4904", 153569503, 61, 30, 8, 8196},
	{CENTAUR, 1, "7ee0bb5d78f00981", "12.4746", 174665944, 41, 21, 8, 4835},
	{DOMINO, 1, "93e72a637c06b8be", "30.0303", 86628108, 36, 36, 0, 12750},
	{DCF, 2, "73f52e47d0bb906e", "19.5880", 164717809, 24, 22, 2, 8190},
	{CENTAUR, 2, "668beb4e1def03b9", "11.9597", 174344124, 29, 23, 6, 4713},
	{DOMINO, 2, "aa4b7774c2bcb93a", "30.0430", 83658508, 36, 36, 0, 12950},
}

// TestTCPOutcomesMatchGoldens runs T(10,2) on the campus trace with TCP Reno
// at 10 Mbps down and 4 Mbps up, as bench's t10x2-tcp does, for 2 s under
// DCF, CENTAUR and DOMINO at two seeds, and compares each run's goodput,
// delay and per-flow TCP counters with the goldens. Trace hashes cannot
// pin these runs, because TCP traces carry the kernel's event counts.
func TestTCPOutcomesMatchGoldens(t *testing.T) {
	campus := t10x2Campus(t)
	for _, want := range tcpGoldens {
		res, err := RunScenario(Scenario{
			Net: campus, Downlink: true, Uplink: true, Scheme: want.scheme, Seed: want.seed,
			Duration: 2 * sim.Second, Warmup: 500 * sim.Millisecond,
			Traffic: TCP, DownMbps: 10, UpMbps: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := tcpOutcome(want.scheme, want.seed, res); got != want {
			t.Errorf("%v seed %d:\n got %+v\nwant %+v", want.scheme, want.seed, got, want)
		}
	}
}

// tcpOutcome summarises a TCP run as a golden.
func tcpOutcome(s Scheme, seed int64, res Result) tcpGolden {
	var b strings.Builder
	for i, l := range res.Links {
		fmt.Fprintf(&b, "link %d %s\n", l.ID, strconv.FormatFloat(res.PerLinkMbps[i], 'g', -1, 64))
	}
	fmt.Fprintf(&b, "delay %d %d\n", res.MeanDelay, res.MeanDelayPerLink)
	g := tcpGolden{scheme: s, seed: seed, dataMbps: fmt.Sprintf("%.4f", res.DataMbps), delay: res.MeanDelay}
	for i, f := range res.TCPFlows {
		fmt.Fprintf(&b, "flow %d %d %d %d %d\n", i, f.Retransmits, f.Timeouts, f.FastRecovered, f.AckedSegments)
		g.retransmits += f.Retransmits
		g.timeouts += f.Timeouts
		g.fastRecovered += f.FastRecovered
		g.acked += f.AckedSegments
	}
	g.hash = fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
	return g
}

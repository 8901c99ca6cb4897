package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestCoexistShape(t *testing.T) {
	o := small()
	r := Coexist(o)
	// With no CoP, DOMINO's NAV-protected chain starves the external pair.
	if r.ExternalMbps[0] > 1.0 {
		t.Errorf("external pair got %.2f Mbps with zero CoP; NAV should starve it", r.ExternalMbps[0])
	}
	if r.DominoMbps[0] < 7 {
		t.Errorf("DOMINO only %.2f Mbps with the whole channel", r.DominoMbps[0])
	}
	// Growing the CoP hands the external pair a growing share and costs
	// DOMINO throughput.
	last := len(r.CoPMs) - 1
	if r.ExternalMbps[last] < 1.5 {
		t.Errorf("external pair got %.2f Mbps with a %v ms CoP", r.ExternalMbps[last], r.CoPMs[last])
	}
	if r.DominoMbps[last] >= r.DominoMbps[0] {
		t.Errorf("DOMINO did not pay for the CoP: %.2f vs %.2f", r.DominoMbps[last], r.DominoMbps[0])
	}
	for i := 1; i <= last; i++ {
		if r.ExternalMbps[i] < r.ExternalMbps[i-1]-0.5 {
			t.Errorf("external share not growing with CoP: %v", r.ExternalMbps)
		}
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "external") {
		t.Error("print malformed")
	}
}

// TestCoexistMatchesGolden pins a mixed DCF+DOMINO medium: the CSV of the
// small CoP sweep and the NDJSON trace of examples/coexistence's scenario
// (seed 1, 4 s, 500 ms warm-up) at every CoP setting. The two engines share
// the kernel's RNG stream through the medium's signature detection, DCF's
// backoff and DOMINO's draws, so any change to which receptions draw from it
// moves both hashes.
func TestCoexistMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four 2 s and four traced 4 s coexistence runs")
	}
	const (
		goldenCSVSHA   = "9967c1286821305ce8ea48a585994970bf7e98c661847d18e935f86755ab97d1"
		goldenTraceSHA = "805b7f7c8be569bf1052955ba1216b7b55f6e60168e10face607d01267135991"
	)
	var csv bytes.Buffer
	if err := Coexist(small()).CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := sha(csv.Bytes()); got != goldenCSVSHA {
		t.Errorf("coexistence CSV hash %s != golden %s:\n%s", got, goldenCSVSHA, csv.String())
	}
	o := Options{Seed: 1, Duration: 4 * sim.Second, Warmup: 500 * sim.Millisecond}
	var trace bytes.Buffer
	nd := obs.NewNDJSON(&trace)
	for _, cop := range []float64{0, 2, 5, 10} {
		coexistRun(o, sim.Millis(cop), nd)
	}
	if err := nd.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sha(trace.Bytes()); got != goldenTraceSHA {
		t.Errorf("coexistence trace hash %s != golden %s (%d bytes)", got, goldenTraceSHA, trace.Len())
	}
}

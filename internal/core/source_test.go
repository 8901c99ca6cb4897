package core

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestFig7EveryEventAttributed runs Fig 7 under every registered scheme,
// saturated, with UDP and with TCP, and checks that each fired event is
// attributed to the layer that scheduled it: no event fires untagged, and
// the PHY fires exactly one event per frame, its transmission end. Events
// inherit the source of the event that scheduled them, so a MAC or
// transport timer armed from inside a PHY callback counts as PHY unless its
// site tags it with SetSource.
func TestFig7EveryEventAttributed(t *testing.T) {
	for _, name := range scheme.Registry.Names() {
		for _, traffic := range []string{`"kind": "saturated"`, `"kind": "udp", "down_mbps": 4, "up_mbps": 4`,
			`"kind": "tcp", "down_mbps": 4, "up_mbps": 4`} {
			sp, err := spec.Parse([]byte(fmt.Sprintf(`{"scheme": %q, "topology": {"kind": "fig7"}, "seed": 1,
				"duration": "300ms", "warmup": "50ms", "traffic": {%s}}`, name, traffic)))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := BuildScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			var buf obs.Buffer
			m := obs.NewMetrics()
			sc.Tracer, sc.Metrics = &buf, m
			mustRun(t, sc)
			txEnds := 0
			for _, r := range buf.Records() {
				if r.Kind == obs.KindTxEnd {
					txEnds++
				}
			}
			snap := m.Snapshot()
			phyEvents, _ := snap.Get("kernel.fired." + sim.SrcPHY.String())
			unknown, _ := snap.Get("kernel.fired." + sim.SrcUnknown.String())
			mac, _ := snap.Get("kernel.fired." + sim.SrcMAC.String())
			if txEnds == 0 || mac.Value == 0 {
				t.Errorf("%s %s: %d tx_end records, %v MAC events", name, sp.Traffic.Kind, txEnds, mac.Value)
			}
			if phyEvents.Value != float64(txEnds) {
				t.Errorf("%s %s: kernel.fired.phy = %v, want %d (one per tx_end record)", name, sp.Traffic.Kind, phyEvents.Value, txEnds)
			}
			if unknown.Value != 0 {
				t.Errorf("%s %s: kernel.fired.unknown = %v, want 0", name, sp.Traffic.Kind, unknown.Value)
			}
		}
	}
}

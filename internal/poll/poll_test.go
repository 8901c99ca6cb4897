package poll_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/phy"
	"repro/internal/poll"
)

func testRSS(c phy.NodeID) float64 { return -40 - float64(c%17) }

func testQueue(c phy.NodeID) int { return int(c%5) + 1 }

func TestLookupAliases(t *testing.T) {
	cases := []struct {
		query, want string
	}{
		{"ROP", "ROP"},
		{"rop", "ROP"},
		{"A2P", "A2P"},
		{"grouped", "A2P"},
		{"UORA", "UORA"},
		{"random-access", "UORA"},
		{"ra", "UORA"},
	}
	for _, c := range cases {
		d, ok := poll.Registry.Lookup(c.query)
		if !ok {
			t.Errorf("Lookup(%q): not found", c.query)
			continue
		}
		if d.Name != c.want {
			t.Errorf("Lookup(%q) = %s, want %s", c.query, d.Name, c.want)
		}
	}
	if _, ok := poll.Registry.Lookup("csma"); ok {
		t.Error("Lookup(csma) unexpectedly found")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := poll.Build("nope", nil); err == nil ||
		!strings.Contains(err.Error(), `unknown poller "nope" (registered: A2P, ROP, UORA)`) {
		t.Errorf("Build(nope) err = %v, want unknown poller", err)
	}
	// ROP has no knobs: a non-empty config object must be rejected, an
	// empty one (however spaced) accepted.
	if _, err := poll.Build("ROP", json.RawMessage(`{"GroupSize": 8}`)); err == nil ||
		!strings.Contains(err.Error(), "poller ROP has no knobs") {
		t.Errorf("Build(ROP, knobs) err = %v, want no-knobs rejection", err)
	}
	if _, err := poll.Build("", json.RawMessage(" { } ")); err != nil {
		t.Errorf("Build(default, empty object) = %v", err)
	}
	// Single-knob domains are TestKnobDomains' (internal/spec); Build keeps
	// only cross-field rules.
	if _, err := poll.Build("UORA", json.RawMessage(`{"OCWMin": 15, "OCWMax": 7}`)); err == nil ||
		!strings.Contains(err.Error(), "poller UORA OCWMax 7 below OCWMin 15") {
		t.Errorf("Build(UORA, OCWMax < OCWMin) err = %v", err)
	}
	if _, err := poll.Build("A2P", json.RawMessage(`{"GroupSize": bad`)); err == nil {
		t.Error("Build(A2P, malformed JSON) unexpectedly succeeded")
	}
	if _, err := poll.Build("A2P", json.RawMessage(`{"GroupSiz": 8}`)); err == nil ||
		!strings.Contains(err.Error(), `poller A2P has no knob "GroupSiz" (knobs: GroupSize, SNRFloorDB, ToleranceDB)`) {
		t.Errorf("Build(A2P, misspelled knob) err = %v", err)
	}
}

func TestRegisterUnregister(t *testing.T) {
	d := poll.Descriptor{
		Name:    "toy",
		Aliases: []string{"toy-alias"},
		Build: func(any) (poll.Poller, error) {
			return nil, nil
		},
	}
	if err := poll.Registry.Register(d); err != nil {
		t.Fatal(err)
	}
	defer poll.Registry.Unregister("toy")
	if _, ok := poll.Registry.Lookup("TOY-ALIAS"); !ok {
		t.Error("alias lookup failed after Register")
	}
	if err := poll.Registry.Register(poll.Descriptor{Name: "toy-alias", Build: d.Build}); err == nil {
		t.Error("duplicate-name Register unexpectedly succeeded")
	}
	if err := poll.Registry.Register(poll.Descriptor{Name: "nobuild"}); err == nil {
		t.Error("Register without Build unexpectedly succeeded")
	}
	poll.Registry.Unregister("toy")
	if _, ok := poll.Registry.Lookup("toy"); ok {
		t.Error("Lookup(toy) found after Unregister")
	}
	if _, ok := poll.Registry.Lookup("toy-alias"); ok {
		t.Error("alias survived Unregister")
	}
}

// TestEveryPollerCoversClientsExactlyOnce is the registry-wide contract the
// engine's counters rest on: per cycle, every report names an assigned
// client and no client decodes twice, so the OK reports (decoded) plus the
// assigned clients without one (failed) add up to the assignment. It runs
// every registered poller at several client counts and seeds, appending
// each cycle after a sentinel report that must stay untouched.
func TestEveryPollerCoversClientsExactlyOnce(t *testing.T) {
	counts := []int{1, 5, 24, 60, 150}
	sentinel := poll.Report{Client: -7, Subchannel: -7, Value: -7}
	for _, name := range poll.Registry.Names() {
		d, ok := poll.Registry.Lookup(name)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup fails", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range counts {
				if d.MaxClients > 0 && n > d.MaxClients {
					continue // the engine truncates before Assign; contract holds below the ceiling
				}
				for seed := int64(1); seed <= 3; seed++ {
					p, err := poll.Build(name, nil)
					if err != nil {
						t.Fatalf("Build(%s): %v", name, err)
					}
					clients := make([]phy.NodeID, n)
					assigned := map[phy.NodeID]bool{}
					for i := range clients {
						clients[i] = phy.NodeID(i + 2)
						assigned[clients[i]] = true
					}
					p.Assign(clients, testRSS)
					if rounds := p.Rounds(); rounds < 1 {
						t.Fatalf("n=%d: Rounds() = %d, want >= 1", n, rounds)
					}
					rng := rand.New(rand.NewSource(seed))
					buf := []poll.Report{sentinel}
					for cycle := 0; cycle < 4; cycle++ {
						buf = p.AppendReports(buf[:1], poll.Context{
							Queue:    testQueue,
							RSSAtAP:  testRSS,
							NoiseDBm: -95,
							Rng:      rng,
						})
						if buf[0] != sentinel {
							t.Fatalf("n=%d seed=%d cycle=%d: the report before dst's end changed to %+v", n, seed, cycle, buf[0])
						}
						okReports := map[phy.NodeID]int{}
						for _, r := range buf[1:] {
							if !assigned[r.Client] {
								t.Fatalf("n=%d seed=%d cycle=%d: report %+v names no assigned client", n, seed, cycle, r)
							}
							if r.OK {
								okReports[r.Client]++
							}
							if r.OK && r.Collided {
								t.Fatalf("n=%d seed=%d cycle=%d: report %+v both decoded and collided", n, seed, cycle, r)
							}
						}
						decoded, failed := 0, 0
						for _, c := range clients {
							if k := okReports[c]; k > 1 {
								t.Fatalf("n=%d seed=%d cycle=%d: client %d decoded %d times", n, seed, cycle, c, k)
							}
							if okReports[c] == 0 {
								failed++
							}
						}
						for _, k := range okReports {
							decoded += k
						}
						if decoded+failed != n {
							t.Fatalf("n=%d seed=%d cycle=%d: %d decoded + %d failed != %d assigned",
								n, seed, cycle, decoded, failed, n)
						}
					}
				}
			}
		})
	}
}

// TestUORAMatchesSlottedAloha anchors UORA to its closed form. With one
// round per cycle and OCWMin = OCWMax ≤ RARUs, every countdown drawn from
// [0, OCW] reaches zero in the first round, so every client transmits
// every cycle on a uniformly drawn RA-RU: a client's report gets through
// alone with p = (1 − 1/R)^(n−1), and a cycle decodes n·p reports on
// average. Collided reports must share their RA-RU and say so. The mean
// over C cycles must land within 4 standard errors, σ/√C, of n·p, where σ²
// is the exact variance of the per-cycle count.
func TestUORAMatchesSlottedAloha(t *testing.T) {
	const (
		n      = 6
		ru     = 8
		cycles = 20000
	)
	p, err := poll.Build("UORA", json.RawMessage(`{"RARUs": 8, "OCWMin": 7, "OCWMax": 7, "RoundsPerCycle": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]phy.NodeID, n)
	for i := range clients {
		clients[i] = phy.NodeID(i + 2)
	}
	p.Assign(clients, testRSS)
	ctx := poll.Context{Queue: testQueue, RSSAtAP: testRSS, NoiseDBm: -95, Rng: rand.New(rand.NewSource(1))}
	var reports []poll.Report
	okTotal := 0
	for cycle := 0; cycle < cycles; cycle++ {
		reports = p.AppendReports(reports[:0], ctx)
		if len(reports) != n {
			t.Fatalf("cycle %d: %d reports, want every one of the %d clients to transmit", cycle, len(reports), n)
		}
		var perRU [ru]int
		for _, r := range reports {
			perRU[r.Subchannel]++
		}
		for _, r := range reports {
			alone := perRU[r.Subchannel] == 1
			if r.OK != alone || r.Collided == alone {
				t.Fatalf("cycle %d: report %+v with %d reports on its RA-RU", cycle, r, perRU[r.Subchannel])
			}
			if r.OK {
				okTotal++
			}
		}
	}
	alone := math.Pow(1-1.0/ru, n-1)
	// Both of two clients get through alone: the second avoids the first's
	// RA-RU and the other n−2 avoid both.
	bothAlone := (1 - 1.0/ru) * math.Pow(1-2.0/ru, n-2)
	want := n * alone
	variance := n*alone + n*(n-1)*bothAlone - want*want
	tol := 4 * math.Sqrt(variance/cycles)
	got := float64(okTotal) / cycles
	if math.Abs(got-want) > tol {
		t.Errorf("mean decoded reports per cycle %.4f, want n(1-1/R)^(n-1) = %.4f ± %.4f", got, want, tol)
	}
	t.Logf("%.4f decoded reports per cycle, closed form %.4f ± %.4f", got, want, tol)
}

package poll_test

import (
	"encoding/json"
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
	// A2P validates its knob ranges.
	if _, err := poll.Build("A2P", json.RawMessage(`{"GroupSize": 99}`)); err == nil {
		t.Error("Build(A2P, GroupSize 99) unexpectedly succeeded")
	}
	if _, err := poll.Build("UORA", json.RawMessage(`{"OCWMin": 15, "OCWMax": 7}`)); err == nil {
		t.Error("Build(UORA, OCWMax < OCWMin) unexpectedly succeeded")
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

// TestEveryPollerCoversClientsExactlyOnce is the registry-wide contract: per
// cycle, every assigned client lands in exactly one of Result.Values or
// Result.Failed — no client silently dropped, none double-reported. It runs
// every registered poller at several client counts and seeds.
func TestEveryPollerCoversClientsExactlyOnce(t *testing.T) {
	counts := []int{1, 5, 24, 60, 150}
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
					for i := range clients {
						clients[i] = phy.NodeID(i + 2)
					}
					p.Assign(clients, testRSS)
					if got := len(p.Clients()); got != n {
						t.Fatalf("n=%d seed=%d: Clients() has %d entries", n, seed, got)
					}
					rounds := p.Rounds()
					if rounds < 1 {
						t.Fatalf("n=%d: Rounds() = %d, want >= 1", n, rounds)
					}
					rng := rand.New(rand.NewSource(seed))
					for cycle := 0; cycle < 4; cycle++ {
						res := p.Poll(poll.Context{
							Queue:    testQueue,
							RSSAtAP:  testRSS,
							NoiseDBm: -95,
							Rng:      rng,
						})
						if res.Rounds != rounds {
							t.Fatalf("n=%d cycle=%d: Result.Rounds %d != Rounds() %d",
								n, cycle, res.Rounds, rounds)
						}
						seen := map[phy.NodeID]int{}
						for c := range res.Values {
							seen[c]++
						}
						for _, c := range res.Failed {
							seen[c]++
						}
						for _, c := range clients {
							if seen[c] != 1 {
								t.Fatalf("n=%d seed=%d cycle=%d: client %d covered %d times",
									n, seed, cycle, c, seen[c])
							}
						}
						if len(seen) != n {
							t.Fatalf("n=%d seed=%d cycle=%d: %d covered clients, want %d",
								n, seed, cycle, len(seen), n)
						}
					}
				}
			}
		})
	}
}

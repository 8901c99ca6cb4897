package spec

import (
	"fmt"
	"math/rand"

	"repro/internal/phy"
	"repro/internal/topo"
)

// Topology references one of the repository's network builders — the
// paper's drawn figures, the two-pair USRP placements, or the generated
// campus/random T(m,n) selections. It is the one place scheme-agnostic
// topology parsing lives; both CLIs and the spec layer build through it.
type Topology struct {
	// Kind is one of fig1, fig7, fig13a, fig13b, sc, ht, et, campus,
	// random, grid.
	Kind string `json:"kind"`
	// APs/Clients are the T(m,n) parameters for campus and random; for
	// grid they are APs-per-building and clients-per-AP.
	APs     int `json:"aps,omitempty"`
	Clients int `json:"clients,omitempty"`
	// Buildings is the grid campus building count (grid only; default 4).
	// The grid topology (topo.GridCampus) decomposes into per-building
	// interference domains, the shape the sharded runner targets.
	Buildings int `json:"buildings,omitempty"`
	// Seed overrides the spec seed for topology generation.
	Seed *int64 `json:"seed,omitempty"`
	// Nodes is the random trace's node count (default 110); AreaM its
	// square side in meters (default 800). random only.
	Nodes int     `json:"nodes,omitempty"`
	AreaM float64 `json:"area_m,omitempty"`
	// AssocFloorDBm relaxes the association RSS floor for dense selections
	// like T(6,5). campus and random only.
	AssocFloorDBm *float64 `json:"assoc_floor_dbm,omitempty"`
}

// Kinds lists the accepted topology kinds.
func Kinds() []string {
	return []string{"fig1", "fig7", "fig13a", "fig13b", "sc", "ht", "et", "campus", "random", "grid"}
}

// Validate checks the reference without building it.
func (t Topology) Validate() error {
	switch t.Kind {
	case "fig1", "fig7", "fig13a", "fig13b", "sc", "ht", "et":
		if t.APs != 0 || t.Clients != 0 || t.Nodes != 0 || t.AreaM != 0 || t.AssocFloorDBm != nil || t.Buildings != 0 {
			return fmt.Errorf("spec: topology %q is fixed; aps/clients/nodes/area_m/assoc_floor_dbm/buildings do not apply", t.Kind)
		}
		return nil
	case "campus", "random":
		if t.APs < 1 || t.Clients < 1 {
			return fmt.Errorf("spec: topology %q needs aps ≥ 1 and clients ≥ 1 (got %d, %d)", t.Kind, t.APs, t.Clients)
		}
		if t.Kind == "campus" && (t.Nodes != 0 || t.AreaM != 0) {
			return fmt.Errorf("spec: nodes/area_m apply to the random topology only")
		}
		if t.Nodes < 0 || t.AreaM < 0 {
			return fmt.Errorf("spec: negative nodes or area_m")
		}
		if t.Buildings != 0 {
			return fmt.Errorf("spec: buildings applies to the grid topology only")
		}
		return nil
	case "grid":
		if t.APs < 1 || t.Clients < 1 {
			return fmt.Errorf("spec: topology grid needs aps ≥ 1 (per building) and clients ≥ 1 (got %d, %d)", t.APs, t.Clients)
		}
		if t.Buildings < 0 {
			return fmt.Errorf("spec: negative buildings %d", t.Buildings)
		}
		if t.Nodes != 0 || t.AreaM != 0 || t.AssocFloorDBm != nil {
			return fmt.Errorf("spec: nodes/area_m/assoc_floor_dbm do not apply to the grid topology")
		}
		return nil
	case "":
		return fmt.Errorf("spec: topology.kind is required (one of %v)", Kinds())
	default:
		return fmt.Errorf("spec: unknown topology kind %q (one of %v)", t.Kind, Kinds())
	}
}

// Build constructs the network. defaultSeed seeds generated topologies when
// the reference carries no seed of its own.
func (t Topology) Build(defaultSeed int64) (*topo.Network, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	seed := defaultSeed
	if t.Seed != nil {
		seed = *t.Seed
	}
	switch t.Kind {
	case "fig1":
		return topo.Figure1(), nil
	case "fig7":
		return topo.Figure7(), nil
	case "fig13a":
		return topo.Figure13a(), nil
	case "fig13b":
		return topo.Figure13b(), nil
	case "sc":
		return topo.TwoPairs(topo.SameContention), nil
	case "ht":
		return topo.TwoPairs(topo.HiddenTerminals), nil
	case "et":
		return topo.TwoPairs(topo.ExposedTerminals), nil
	case "grid":
		buildings := t.Buildings
		if buildings == 0 {
			buildings = 4
		}
		return topo.GridCampus(seed, buildings, t.APs, t.Clients), nil
	case "campus", "random":
		var tr *topo.Trace
		if t.Kind == "campus" {
			tr = topo.CampusTrace(seed)
		} else {
			nodes, area := t.Nodes, t.AreaM
			if nodes == 0 {
				nodes = 110
			}
			if area == 0 {
				area = 800
			}
			tr = topo.RandomTrace(seed, nodes, area)
		}
		rng := rand.New(rand.NewSource(seed))
		if t.AssocFloorDBm != nil {
			return topo.BuildTWithFloor(tr, t.APs, t.Clients, *t.AssocFloorDBm, phy.DefaultConfig(), phy.Rate12, rng)
		}
		return topo.BuildT(tr, t.APs, t.Clients, phy.DefaultConfig(), phy.Rate12, rng)
	}
	return nil, fmt.Errorf("spec: unknown topology kind %q", t.Kind)
}

// BuildLinks resolves the spec's link set on net: the explicit Links list
// when present (validated against the network), otherwise the directions
// selected by Downlink/Uplink.
func (s Spec) BuildLinks(net *topo.Network) ([]*topo.Link, error) {
	if len(s.Links) == 0 {
		return nil, nil // core builds from the direction flags
	}
	n := net.NumNodes()
	links := make([]*topo.Link, 0, len(s.Links))
	for i, l := range s.Links {
		if l.Sender >= n || l.Receiver >= n {
			return nil, fmt.Errorf("spec: links[%d]: node out of range (network has %d nodes)", i, n)
		}
		ap := l.Sender
		if !l.Downlink {
			ap = l.Receiver
		}
		if !net.IsAP[ap] {
			return nil, fmt.Errorf("spec: links[%d]: %s endpoint node %d is not an AP", i, direction(l.Downlink), ap)
		}
		links = append(links, &topo.Link{
			ID: i, Sender: phy.NodeID(l.Sender), Receiver: phy.NodeID(l.Receiver),
			AP: phy.NodeID(ap), Downlink: l.Downlink,
		})
	}
	return links, nil
}

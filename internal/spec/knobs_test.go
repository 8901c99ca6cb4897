package spec_test

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/poll"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/spec"
)

// knobOwner is one registered config struct: a scheme's scheme_config or a
// poller's PollerConfig under DOMINO.
type knobOwner struct {
	name string // "DOMINO config", "poller UORA"
	// cfg returns a fresh default config.
	cfg func() any
	// spec returns a 50 ms fig7 spec whose config carries knobs, a JSON
	// object of this owner's fields.
	spec func(knobs string) spec.Spec
}

func knobOwners(t *testing.T) []knobOwner {
	t.Helper()
	run := func(scheme, schemeConfig string) spec.Spec {
		return spec.Spec{
			Scheme:       scheme,
			Topology:     spec.Topology{Kind: "fig7"},
			Duration:     spec.Duration(50 * sim.Millisecond),
			Warmup:       spec.Duration(10 * sim.Millisecond),
			Traffic:      spec.Traffic{Kind: "saturated"},
			SchemeConfig: json.RawMessage(schemeConfig),
		}
	}
	var out []knobOwner
	for _, name := range scheme.Registry.Names() {
		d, _ := scheme.Registry.Lookup(name)
		out = append(out, knobOwner{d.Name + " config", func() any { return d.DefaultConfig(scheme.Params{}) },
			func(knobs string) spec.Spec { return run(name, knobs) }})
	}
	for _, name := range poll.Registry.Names() {
		d, _ := poll.Registry.Lookup(name)
		if d.DefaultConfig == nil {
			continue // a poller without knobs
		}
		out = append(out, knobOwner{"poller " + d.Name, d.DefaultConfig,
			func(knobs string) spec.Spec {
				return run("domino", fmt.Sprintf(`{"Poller": %q, "PollerConfig": %s}`, name, knobs))
			}})
	}
	if len(out) < 6 {
		t.Fatalf("only %d knob owners registered", len(out))
	}
	return out
}

// TestKnobDomains is the one test of every registered scheme's and poller's
// knob domains: each numeric knob declares one, the defaults lie inside
// them, a value just outside each bound (or off an enumeration) is rejected
// naming the knob, and a short fig7 run with any one knob at a bound
// finishes.
func TestKnobDomains(t *testing.T) {
	for _, o := range knobOwners(t) {
		doms, err := registry.Domains(o.cfg())
		if err != nil {
			t.Errorf("%s: %v", o.name, err)
			continue
		}
		if err := registry.Overlay(o.cfg(), json.RawMessage(`{}`), o.name, "knob"); err != nil {
			t.Errorf("%s: the default config lies outside its domains: %v", o.name, err)
		}
		for _, d := range doms {
			kind := reflect.ValueOf(o.cfg()).Elem().FieldByName(d.Field).Kind()
			outside := []float64{d.Min - 1, d.Max + 1}
			if kind == reflect.Float64 {
				outside = []float64{math.Nextafter(d.Min, math.Inf(-1)), math.Nextafter(d.Max, math.Inf(1))}
			}
			for _, v := range outside {
				raw := fmt.Sprintf(`{%q: %s}`, d.Field, num(v))
				err := registry.Overlay(o.cfg(), json.RawMessage(raw), o.name, "knob")
				if err == nil || !strings.Contains(err.Error(), o.name+" "+d.Field) {
					t.Errorf("%s %s: overlay %s: error %v, want one naming the field", o.name, d.Field, raw, err)
				}
			}
			bounds := d.Values
			if bounds == nil {
				bounds = []float64{d.Min, d.Max}
			}
			for _, v := range bounds {
				t.Run(fmt.Sprintf("%s/%s=%s", o.name, d.Field, num(v)), func(t *testing.T) {
					sp := o.spec(fmt.Sprintf(`{%q: %s}`, d.Field, num(v)))
					if err := sp.Validate(); err != nil {
						// A cross-field rule may refuse one knob alone at a
						// bound; its partners share the domain, so set them
						// all to the bound together.
						t.Logf("alone: %v", err)
						var knobs []string
						for _, p := range doms {
							if p.String() == d.String() {
								knobs = append(knobs, fmt.Sprintf(`%q: %s`, p.Field, num(v)))
							}
						}
						sp = o.spec("{" + strings.Join(knobs, ", ") + "}")
					}
					if _, err := core.RunE(sp); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// num writes a knob value as a JSON number, integers without an exponent.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

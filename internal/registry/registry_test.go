package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type toy struct {
	Name    string
	Aliases []string
	Build   func() int
}

func newToys(def string) *Of[toy] {
	return New("toy", def, func(d *toy) (string, []string, error) {
		if d.Build == nil {
			return d.Name, d.Aliases, errors.New("Build is required")
		}
		return d.Name, d.Aliases, nil
	})
}

func build() int { return 1 }

// TestRegistry drives one registry per row through a sequence of calls; it
// is the one test of the name table schemes, schedulers and pollers share.
func TestRegistry(t *testing.T) {
	cases := []struct {
		name string
		def  string
		run  func(t *testing.T, r *Of[toy])
	}{
		{"lookup is case-insensitive over names and aliases", "", func(t *testing.T, r *Of[toy]) {
			r.MustRegister(toy{Name: "Alpha", Aliases: []string{"a"}, Build: build})
			for _, q := range []string{"Alpha", "alpha", "ALPHA", "a", "A"} {
				if d, ok := r.Lookup(q); !ok || d.Name != "Alpha" {
					t.Errorf("Lookup(%q) = %v, %v", q, d, ok)
				}
			}
			if _, ok := r.Lookup("beta"); ok {
				t.Error("Lookup(beta) found an unregistered name")
			}
		}},
		{"names are canonical and sorted", "", func(t *testing.T, r *Of[toy]) {
			r.MustRegister(toy{Name: "Zeta", Aliases: []string{"z"}, Build: build})
			r.MustRegister(toy{Name: "Alpha", Build: build})
			if got := strings.Join(r.Names(), ","); got != "Alpha,Zeta" {
				t.Errorf("Names() = %s", got)
			}
		}},
		{"bad descriptors are rejected", "", func(t *testing.T, r *Of[toy]) {
			if err := r.Register(toy{Build: build}); err == nil || !strings.Contains(err.Error(), "empty Name") {
				t.Errorf("empty Name: %v", err)
			}
			if err := r.Register(toy{Name: "NoBuild"}); err == nil || !strings.Contains(err.Error(), "Build is required") {
				t.Errorf("missing Build: %v", err)
			}
			if len(r.Names()) != 0 {
				t.Errorf("rejected descriptors registered: %v", r.Names())
			}
		}},
		{"duplicates are rejected without side effects", "", func(t *testing.T, r *Of[toy]) {
			r.MustRegister(toy{Name: "Base", Aliases: []string{"dup-alias"}, Build: build})
			if err := r.Register(toy{Name: "base", Build: build}); err == nil {
				t.Error("case-variant duplicate accepted")
			}
			err := r.Register(toy{Name: "Other", Aliases: []string{"DUP-ALIAS"}, Build: build})
			if err == nil || !strings.Contains(err.Error(), "(by Base)") {
				t.Errorf("alias collision: %v, want an error naming the prior owner", err)
			}
			if _, ok := r.Lookup("Other"); ok {
				t.Error("failed Register leaked the canonical name")
			}
			if got := strings.Join(r.Names(), ","); got != "Base" {
				t.Errorf("Names() = %s", got)
			}
		}},
		{"unregister by alias removes every name", "", func(t *testing.T, r *Of[toy]) {
			r.MustRegister(toy{Name: "Gone", Aliases: []string{"g1", "g2"}, Build: build})
			r.MustRegister(toy{Name: "Kept", Build: build})
			r.Unregister("G2")
			for _, q := range []string{"Gone", "g1", "g2"} {
				if _, ok := r.Lookup(q); ok {
					t.Errorf("%q survived Unregister", q)
				}
			}
			if got := strings.Join(r.Names(), ","); got != "Kept" {
				t.Errorf("Names() = %s", got)
			}
			r.Unregister("Gone") // unknown names are a no-op
			r.MustRegister(toy{Name: "gone", Build: build})
		}},
		{"resolve reports unknown and missing names", "", func(t *testing.T, r *Of[toy]) {
			r.MustRegister(toy{Name: "Alpha", Build: build})
			r.MustRegister(toy{Name: "Beta", Build: build})
			if _, err := r.Resolve("gamma"); err == nil ||
				err.Error() != `unknown toy "gamma" (registered: Alpha, Beta)` {
				t.Errorf("Resolve(gamma) = %v", err)
			}
			if _, err := r.Resolve(""); err == nil || err.Error() != "toy is required (registered: Alpha, Beta)" {
				t.Errorf("Resolve(\"\") without a default = %v", err)
			}
			if d, err := r.Resolve("beta"); err != nil || d.Name != "Beta" {
				t.Errorf("Resolve(beta) = %v, %v", d, err)
			}
		}},
		{"resolve falls back to the default", "Alpha", func(t *testing.T, r *Of[toy]) {
			r.MustRegister(toy{Name: "Alpha", Build: build})
			r.MustRegister(toy{Name: "Beta", Build: build})
			if d, err := r.Resolve(""); err != nil || d.Name != "Alpha" {
				t.Errorf("Resolve(\"\") = %v, %v; want the default", d, err)
			}
			if _, err := r.Resolve("x"); err == nil || !strings.HasPrefix(err.Error(), `unknown toy "x"`) {
				t.Errorf("Resolve(x) = %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newToys(tc.def)) })
	}
}

// TestRegistryConcurrentUse has readers resolve names while a writer
// registers and unregisters, the way parallel runs read a registry that
// tests mutate; run it under -race.
func TestRegistryConcurrentUse(t *testing.T) {
	r := newToys("Base")
	r.MustRegister(toy{Name: "Base", Build: build})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if d, err := r.Resolve(""); err != nil || d.Name != "Base" {
					t.Errorf("Resolve(\"\") = %v, %v", d, err)
					return
				}
				r.Lookup("t1")
				r.Names()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("T%d", i%3)
		if err := r.Register(toy{Name: name, Aliases: []string{strings.ToLower(name) + "-alias"}, Build: build}); err != nil {
			t.Fatal(err)
		}
		r.Unregister(name)
	}
	wg.Wait()
}

type knobs struct {
	Size   int     `domain:"0..10"`
	Mode   float64 `domain:"0|2.5"`
	Name   string  `json:"name"`
	Hidden bool    `json:"-"`
	Nested json.RawMessage
}

func TestOverlay(t *testing.T) {
	cases := []struct {
		raw     string
		nilCfg  bool
		wantErr string
		want    knobs
	}{
		{raw: ``},
		{raw: `null`},
		{raw: " { } "},
		{raw: `{"size": 3, "NAME": "x", "Nested": {"a": 1}}`, want: knobs{Size: 3, Name: "x", Nested: json.RawMessage(`{"a": 1}`)}},
		{raw: `[1]`, wantErr: "thing must be a JSON object, got [1]"},
		{raw: `{"Sise": 3}`, wantErr: `thing has no knob "Sise" (knobs: Mode, Nested, Size, name)`},
		{raw: `{"Size": 10, "Mode": 2.5}`, want: knobs{Size: 10, Mode: 2.5}},
		{raw: `{"Size": 11}`, wantErr: "thing Size 11 out of range 0..10"},
		{raw: `{"Size": -1}`, wantErr: "thing Size -1 out of range 0..10"},
		{raw: `{"Mode": 1}`, wantErr: "thing Mode 1 is not one of 0|2.5"},
		{raw: `{"Hidden": true}`, wantErr: `thing has no knob "Hidden"`},
		{raw: `{"Size": "3"}`, wantErr: "thing Size must be a number, got string"},
		{raw: `{"name": 3}`, wantErr: "thing name must be a string, got number"},
		{raw: `{"Nested": [1]}`, wantErr: "thing Nested must be a JSON object, got [1]"},
		{raw: `{"Nested": null}`, want: knobs{Nested: json.RawMessage(`null`)}},
		{raw: " {\n} ", nilCfg: true},
		{raw: `{"Size": 1}`, nilCfg: true, wantErr: "thing has no knobs"},
	}
	for _, tc := range cases {
		var k knobs
		var cfg any = &k
		if tc.nilCfg {
			cfg = nil
		}
		err := Overlay(cfg, json.RawMessage(tc.raw), "thing", "knob")
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.raw, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want %q", tc.raw, err, tc.wantErr)
		case tc.wantErr == "" && (k.Size != tc.want.Size || k.Mode != tc.want.Mode || k.Name != tc.want.Name || string(k.Nested) != string(tc.want.Nested)):
			t.Errorf("%s: decoded %+v, want %+v", tc.raw, k, tc.want)
		}
	}
}

func TestDomains(t *testing.T) {
	doms, err := Domains(&struct {
		Wait  int64   `domain:"1us..50us"`
		Chips int     `domain:"511|127|255"`
		Gain  float64 `domain:"-3.5..40"`
		Rate  float64 `json:"-"`
		On    bool
	}{})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s %v %v %s %v %v %v %v", doms[0].Field, doms[0].Min, doms[0].Max,
		doms[1].Field, doms[1].Min, doms[1].Max, doms[1].Values, doms[2])
	if want := "Wait 1000 50000 Chips 127 511 [511 127 255] -3.5..40"; len(doms) != 3 || got != want {
		t.Errorf("Domains = %d domains %q, want 3 %q", len(doms), got, want)
	}
	if !doms[1].Contains(255) || doms[1].Contains(256) || !doms[2].Contains(-3.5) || doms[2].Contains(40.5) {
		t.Error("Contains disagrees with the declared domains")
	}
	for _, tc := range []struct {
		cfg     any
		wantErr string
	}{
		{&struct{ N int }{}, "numeric field N declares no domain tag"},
		{&struct {
			N int `domain:"1..x"`
		}{}, `field N: domain "1..x"`},
		{&struct {
			N int `domain:"5..1"`
		}{}, "empty range"},
	} {
		if _, err := Domains(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Domains(%T) error %v, want %q", tc.cfg, err, tc.wantErr)
		}
	}
}

package scheme

import (
	"strings"
	"testing"

	"repro/internal/mac"
)

func stubDescriptor(name string, aliases ...string) Descriptor {
	return Descriptor{
		Name:          name,
		Aliases:       aliases,
		DefaultConfig: func(p Params) any { return &struct{}{} },
		Build:         func(ctx BuildContext, cfg any) (mac.Engine, error) { return nil, nil },
	}
}

func TestRegisterLookupUnregister(t *testing.T) {
	if err := Registry.Register(stubDescriptor("TestScheme", "ts")); err != nil {
		t.Fatal(err)
	}
	defer Registry.Unregister("TestScheme")

	for _, name := range []string{"TestScheme", "testscheme", "TESTSCHEME", "ts", "TS"} {
		d, ok := Registry.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed", name)
		}
		if d.Name != "TestScheme" {
			t.Fatalf("Lookup(%q) resolved %q", name, d.Name)
		}
	}
	found := false
	for _, n := range Registry.Names() {
		if n == "TestScheme" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing TestScheme", Registry.Names())
	}

	Registry.Unregister("TestScheme")
	if _, ok := Registry.Lookup("ts"); ok {
		t.Fatal("alias survived Unregister")
	}
	if _, ok := Registry.Lookup("TestScheme"); ok {
		t.Fatal("name survived Unregister")
	}
	Registry.Unregister("TestScheme") // unknown names are a no-op
}

func TestRegisterRejectsBadDescriptors(t *testing.T) {
	if err := Registry.Register(Descriptor{}); err == nil {
		t.Error("empty Name accepted")
	}
	if err := Registry.Register(Descriptor{Name: "NoFuncs"}); err == nil {
		t.Error("missing DefaultConfig/Build accepted")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Registry.Register(stubDescriptor("DupBase", "dup-alias")); err != nil {
		t.Fatal(err)
	}
	defer Registry.Unregister("DupBase")

	// Same canonical name, different case.
	if err := Registry.Register(stubDescriptor("dupbase")); err == nil {
		t.Error("case-variant duplicate accepted")
		Registry.Unregister("dupbase")
	}
	// A new name whose alias collides with an existing alias.
	if err := Registry.Register(stubDescriptor("DupOther", "DUP-ALIAS")); err == nil {
		t.Error("alias collision accepted")
		Registry.Unregister("DupOther")
	} else if !strings.Contains(err.Error(), "DupBase") {
		t.Errorf("collision error should name the prior owner: %v", err)
	}
	// A failed Register must not leave partial alias entries behind.
	if _, ok := Registry.Lookup("DupOther"); ok {
		t.Error("failed Register leaked the canonical name")
	}
}

func TestBuiltinSchemesRegistered(t *testing.T) {
	// The engine packages register at init; this package does not import
	// them, so only assert when they are present (the e2e test below pulls
	// them in via core).
	for _, n := range Registry.Names() {
		if d, ok := Registry.Lookup(n); !ok || d.Name != n {
			t.Errorf("Names() entry %q does not Lookup to itself", n)
		}
	}
}

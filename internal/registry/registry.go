// Package registry is the one name → descriptor table every pluggable
// component kind shares: channel-access schemes (internal/scheme), strict
// scheduling policies (internal/strict) and pollers (internal/poll). Each of
// those packages keeps one Of variable that its implementations register
// into at init time, so adding a scheme, scheduler or poller is one
// MustRegister call. The registry owns name resolution (case-insensitive,
// aliases, the kind's default) and the one "unknown ‹kind›" error; Overlay
// is the one path by which a JSON object of knobs reaches a config struct,
// and it enforces the Domain each numeric knob declares in its struct tag.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Of is the registry of one component kind; D is its descriptor type.
type Of[D any] struct {
	kind string
	def  string
	// key returns a descriptor's canonical name and aliases, or an error
	// when the descriptor is incomplete (a missing build function).
	key func(*D) (name string, aliases []string, err error)

	mu    sync.RWMutex
	byKey map[string]*D // lower-cased name or alias → descriptor
	// canonical lists the canonical names only, sorted, for Names.
	canonical []string
}

// New returns an empty registry. kind names the component in errors
// ("scheme", "scheduler", "poller"); def is the name an empty request
// resolves to ("" when a name is required); key reads a descriptor's
// canonical name and aliases and rejects an incomplete one.
func New[D any](kind, def string, key func(*D) (string, []string, error)) *Of[D] {
	return &Of[D]{kind: kind, def: def, key: key, byKey: map[string]*D{}}
}

// Register adds a descriptor. It fails on an empty name, an incomplete
// descriptor, and a name or alias already taken (case-insensitively); a
// failed Register leaves the registry unchanged.
func (r *Of[D]) Register(d D) error {
	name, aliases, err := r.key(&d)
	if name == "" {
		return fmt.Errorf("%s: Register with empty Name", r.kind)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %v", r.kind, name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := append([]string{name}, aliases...)
	for _, k := range keys {
		if prev, ok := r.byKey[strings.ToLower(k)]; ok {
			prevName, _, _ := r.key(prev)
			return fmt.Errorf("%s %q already registered (by %s)", r.kind, k, prevName)
		}
	}
	for _, k := range keys {
		r.byKey[strings.ToLower(k)] = &d
	}
	r.canonical = append(r.canonical, name)
	sort.Strings(r.canonical)
	return nil
}

// MustRegister is Register for init-time use; it panics on error.
func (r *Of[D]) MustRegister(d D) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Unregister removes a descriptor and all its aliases, given any of its
// names; tests use it to clean up toy registrations. Unknown names are a
// no-op.
func (r *Of[D]) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.byKey[strings.ToLower(name)]
	if !ok {
		return
	}
	canon, aliases, _ := r.key(d)
	for _, k := range append([]string{canon}, aliases...) {
		delete(r.byKey, strings.ToLower(k))
	}
	for i, n := range r.canonical {
		if n == canon {
			r.canonical = append(r.canonical[:i], r.canonical[i+1:]...)
			break
		}
	}
}

// Lookup resolves a canonical name or alias, case-insensitively.
func (r *Of[D]) Lookup(name string) (*D, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byKey[strings.ToLower(name)]
	return d, ok
}

// Names returns the canonical registered names, sorted.
func (r *Of[D]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.canonical...)
}

// Resolve is Lookup with the kind's default for an empty name and an error
// listing the registered names when the name is unknown (or empty in a kind
// without a default).
func (r *Of[D]) Resolve(name string) (*D, error) {
	if name == "" {
		if r.def == "" {
			return nil, fmt.Errorf("%s is required (registered: %s)", r.kind, strings.Join(r.Names(), ", "))
		}
		name = r.def
	}
	if d, ok := r.Lookup(name); ok {
		return d, nil
	}
	return nil, fmt.Errorf("unknown %s %q (registered: %s)", r.kind, name, strings.Join(r.Names(), ", "))
}

package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

var rawMessageType = reflect.TypeOf(json.RawMessage(nil))

// Overlay decodes raw, a JSON object of knob overrides, onto cfg, a pointer
// to a config struct. Keys are the struct's JSON field names (the Go field
// name unless a json tag renames it), matched case-insensitively as
// encoding/json matches them. Unlike a bare json.Unmarshal, a key naming no
// field is an error listing the fields, a value of the wrong JSON type or
// outside its field's Domain is an error naming the field, and a
// json.RawMessage field — a nested knob object — must hold a JSON object.
// owner names cfg in errors ("DOMINO config", "poller A2P") and noun what
// one key is ("field", "knob"). A nil cfg has no knobs: any key is an
// error. Empty, blank or null raw leaves cfg as it is.
func Overlay(cfg any, raw json.RawMessage, owner, noun string) error {
	if isNull(raw) {
		return nil
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return fmt.Errorf("%s must be a JSON object, got %s", owner, bytes.TrimSpace(raw))
	}
	if cfg == nil {
		if len(obj) > 0 {
			return fmt.Errorf("%s has no %ss", owner, noun)
		}
		return nil
	}
	if t := structType(cfg); t != nil {
		fields := map[string]reflect.StructField{} // lower-cased JSON name → field
		for _, f := range jsonFields(t) {
			fields[strings.ToLower(f.Name)] = f
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f, ok := fields[strings.ToLower(k)]
			if !ok {
				names := make([]string, 0, len(fields))
				for _, f := range fields {
					names = append(names, f.Name)
				}
				sort.Strings(names)
				return fmt.Errorf("%s has no %s %q (%ss: %s)", owner, noun, k, noun, strings.Join(names, ", "))
			}
			if v := obj[k]; f.Type == rawMessageType && !isNull(v) && bytes.TrimSpace(v)[0] != '{' {
				return fmt.Errorf("%s %s must be a JSON object, got %s", owner, f.Name, bytes.TrimSpace(v))
			}
		}
	}
	if err := json.Unmarshal(raw, cfg); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Field != "" {
			return fmt.Errorf("%s %s must be %s, got %s", owner, te.Field, jsonKind(te.Type), te.Value)
		}
		return fmt.Errorf("%s: %v", owner, err)
	}
	doms, err := Domains(cfg)
	if err != nil {
		return fmt.Errorf("%s: %v", owner, err)
	}
	v := reflect.Indirect(reflect.ValueOf(cfg))
	for _, d := range doms {
		fv := v.Field(d.index)
		if x, _ := number(fv); !d.Contains(x) {
			value := fmt.Sprint(x)
			if fv.CanInt() {
				value = strconv.FormatInt(fv.Int(), 10) // exact, and not sim.Time's String
			}
			if d.Values != nil {
				return fmt.Errorf("%s %s %s is not one of %s", owner, d.Field, value, d)
			}
			return fmt.Errorf("%s %s %s out of range %s", owner, d.Field, value, d)
		}
	}
	return nil
}

// Domain is the set of values one numeric knob accepts. It is declared once,
// in a `domain` struct tag on the config field: "lo..hi" for a closed range,
// "a|b|c" for an enumeration. A bound that is not a plain number is read as a
// Go duration ("10ms") and stands for its nanoseconds, sim.Time's unit.
type Domain struct {
	Field    string    // the knob's JSON name
	Min, Max float64   // the range's bounds, or the enumeration's extremes
	Values   []float64 // an enumeration's members; nil for a range

	tag   string
	index int
}

// Contains reports whether v lies in the domain.
func (d Domain) Contains(v float64) bool {
	if d.Values == nil {
		return v >= d.Min && v <= d.Max
	}
	return slices.Contains(d.Values, v)
}

// String returns the domain as declared in the tag.
func (d Domain) String() string { return d.tag }

// Domains returns the domain of every numeric knob of cfg (a config struct
// or a pointer to one) in declaration order. A numeric field without a
// domain tag, or with a malformed one, is an error; fields hidden with
// json:"-" are not knobs and need none.
func Domains(cfg any) ([]Domain, error) {
	t := structType(cfg)
	if t == nil {
		return nil, nil
	}
	var out []Domain
	for _, f := range jsonFields(t) {
		if _, numeric := number(reflect.Zero(f.Type)); !numeric {
			continue
		}
		tag, ok := f.Tag.Lookup("domain")
		if !ok {
			return nil, fmt.Errorf("numeric field %s declares no domain tag", f.Name)
		}
		d := Domain{Field: f.Name, tag: tag, index: f.Index[0]}
		lo, hi, isRange := strings.Cut(tag, "..")
		bounds := []string{lo, hi}
		if !isRange {
			bounds = strings.Split(tag, "|")
		}
		for _, b := range bounds {
			x, err := strconv.ParseFloat(b, 64)
			if err != nil {
				dur, derr := time.ParseDuration(b)
				if derr != nil {
					return nil, fmt.Errorf("field %s: domain %q: bad bound %q", f.Name, tag, b)
				}
				x = float64(dur)
			}
			d.Values = append(d.Values, x)
		}
		d.Min, d.Max = slices.Min(d.Values), slices.Max(d.Values)
		if isRange {
			if d.Values[0] > d.Values[1] {
				return nil, fmt.Errorf("field %s: domain %q is an empty range", f.Name, tag)
			}
			d.Values = nil
		}
		out = append(out, d)
	}
	return out, nil
}

// number reads an integer or floating-point value as a float64; ok is false
// for any other kind.
func number(v reflect.Value) (x float64, ok bool) {
	switch {
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}

func isNull(raw json.RawMessage) bool {
	v := bytes.TrimSpace(raw)
	return len(v) == 0 || string(v) == "null"
}

// structType is the struct type cfg holds or points to, or nil.
func structType(cfg any) reflect.Type {
	t := reflect.TypeOf(cfg)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil
	}
	return t
}

// jsonFields lists the JSON-addressable fields of a flat config struct in
// declaration order, each under its JSON name: a json tag overrides the Go
// name, and "-" hides the field.
func jsonFields(t reflect.Type) []reflect.StructField {
	var out []reflect.StructField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || tag == "-" {
			continue
		}
		if tag != "" {
			f.Name = tag
		}
		out = append(out, f)
	}
	return out
}

// jsonKind names the JSON value a Go type decodes from.
func jsonKind(t reflect.Type) string {
	switch k := t.Kind(); {
	case k == reflect.String:
		return "a string"
	case k == reflect.Bool:
		return "a boolean"
	case k >= reflect.Int && k <= reflect.Float64:
		return "a number"
	case k == reflect.Slice || k == reflect.Array:
		return "an array"
	default:
		return "a JSON object"
	}
}

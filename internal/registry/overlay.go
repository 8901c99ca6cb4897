package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

var rawMessageType = reflect.TypeOf(json.RawMessage(nil))

// Overlay decodes raw, a JSON object of knob overrides, onto cfg, a pointer
// to a config struct. Keys are the struct's JSON field names (the Go field
// name unless a json tag renames it), matched case-insensitively as
// encoding/json matches them. Unlike a bare json.Unmarshal, a key naming no
// field is an error listing the fields, a value of the wrong JSON type is an
// error naming the field, and a json.RawMessage field — a nested knob object
// — must hold a JSON object. owner names cfg in errors ("DOMINO config",
// "poller A2P") and noun what one key is ("field", "knob"). A nil cfg has no
// knobs: any key is an error. Empty, blank or null raw leaves cfg as it is.
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
	t := reflect.TypeOf(cfg)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() == reflect.Struct {
		fields := map[string]reflect.StructField{} // lower-cased JSON name → field
		collectFields(t, fields)
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
	return nil
}

func isNull(raw json.RawMessage) bool {
	v := bytes.TrimSpace(raw)
	return len(v) == 0 || string(v) == "null"
}

// collectFields gathers the JSON-addressable fields of a config struct
// under their JSON names, recursing into embedded structs the way
// encoding/json flattens them. A json tag overrides the field name; "-"
// hides the field.
func collectFields(t reflect.Type, out map[string]reflect.StructField) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Anonymous {
			ft := f.Type
			for ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && f.Tag.Get("json") == "" {
				collectFields(ft, out)
				continue
			}
		}
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
			if tag == "-" {
				continue
			}
			f.Name = tag
		}
		out[strings.ToLower(f.Name)] = f
	}
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

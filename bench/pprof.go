package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// This file reads just enough of the pprof protobuf format (profile.proto)
// to recover each sample's stack of function names and its sample count.

// stackSample is one profile sample: function names leaf first, inlined
// callees before their callers, and the sample count.
type stackSample struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzip-compressed CPU profile as runtime/pprof writes
// it.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample []struct {
			locs  []uint64
			count int64
		}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil || len(vals) == 0 {
				return fmt.Errorf("sample: %v", err)
			}
			rawSample = append(rawSample, struct {
				locs  []uint64
				count int64
			}{locs, int64(vals[0])})
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("location: %w", err)
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("function: %w", err)
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, s := range rawSample {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{frames: frames, count: s.count})
	}
	return out, nil
}

// appendPacked appends a repeated integer field, which the encoder writes
// either packed (b holds the varints) or as one varint per field (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField calls fn for every field of one protobuf message: v carries a
// varint field's value, b a length-delimited field's bytes (nil otherwise).
// Fixed-width fields are skipped; profile.proto uses none this reader needs.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers lists every bucket a profile sample can land in, in report order.
var layers = []string{
	"sim", "phy", "topo", "core", "domino", "convert", "strict", "poll",
	"dcf", "centaur", "mac", "traffic", "shard", "stats", "gc", "alloc", "other",
}

// pkgLayer maps repro/internal packages onto the benchmark's layers.
// Packages not listed fall to "other".
var pkgLayer = map[string]string{
	"sim": "sim", "phy": "phy", "gold": "phy", "topo": "topo",
	"core": "core", "scheme": "core", "spec": "core",
	"domino": "domino", "convert": "convert", "strict": "strict",
	"poll": "poll", "rop": "poll", "ofdm": "poll",
	"dcf": "dcf", "centaur": "centaur", "mac": "mac", "traffic": "traffic",
	"shard": "shard", "parallel": "shard", "stats": "stats", "obs": "stats",
}

// layerOf attributes one sample: the garbage collector's background worker
// first, then allocation (which includes GC assist), then the innermost
// repro/internal frame, so a math.Log10 leaf counts toward its caller's layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		if f == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "alloc"
		}
	}
	const prefix = "repro/internal/"
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, prefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := pkgLayer[pkg]; ok {
				return l
			}
			return "other"
		}
	}
	return "other"
}

// layerShares returns each layer's share of the profile's samples; the
// shares sum to 1 whenever the profile holds any sample.
func layerShares(samples []stackSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

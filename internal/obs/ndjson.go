package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// AppendRecord appends r to buf as one JSON object followed by '\n'. The
// encoding is hand-rolled with a fixed field order and integer timestamps so
// identical record streams are byte-identical — the determinism contract the
// parallel drivers and the workers=1-vs-N regression test rely on.
// Node/Link/Slot are omitted when negative, numeric payloads when zero, Aux
// when empty; Kind and At are always present.
func AppendRecord(buf []byte, r Record) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, int64(r.At), 10)
	buf = append(buf, `,"k":"`...)
	buf = append(buf, r.Kind.String()...)
	buf = append(buf, '"')
	if r.Node >= 0 {
		buf = append(buf, `,"node":`...)
		buf = strconv.AppendInt(buf, int64(r.Node), 10)
	}
	if r.Link >= 0 {
		buf = append(buf, `,"link":`...)
		buf = strconv.AppendInt(buf, int64(r.Link), 10)
	}
	if r.Slot >= 0 {
		buf = append(buf, `,"slot":`...)
		buf = strconv.AppendInt(buf, int64(r.Slot), 10)
	}
	if r.Value != 0 {
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendInt(buf, r.Value, 10)
	}
	if r.Extra != 0 {
		buf = append(buf, `,"x":`...)
		buf = strconv.AppendInt(buf, r.Extra, 10)
	}
	if r.Dur != 0 {
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, int64(r.Dur), 10)
	}
	if r.Span != 0 {
		buf = append(buf, `,"sp":`...)
		buf = strconv.AppendInt(buf, r.Span, 10)
	}
	if r.Parent != 0 {
		buf = append(buf, `,"pa":`...)
		buf = strconv.AppendInt(buf, r.Parent, 10)
	}
	if r.Shard != 0 {
		buf = append(buf, `,"sh":`...)
		buf = strconv.AppendInt(buf, int64(r.Shard), 10)
	}
	if r.Aux != "" {
		buf = append(buf, `,"aux":`...)
		buf = appendJSONString(buf, r.Aux)
	}
	if r.OK {
		buf = append(buf, `,"ok":true`...)
	}
	buf = append(buf, '}', '\n')
	return buf
}

// appendJSONString quotes s. Aux values are fixed protocol tokens, so the
// common path is a plain copy; anything needing escapes goes through the
// stdlib encoder.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			q, _ := json.Marshal(s)
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// ndjsonFlushAt bounds the in-memory buffer of an NDJSON tracer: once a
// record pushes it past this size it is flushed to the writer.
const ndjsonFlushAt = 64 << 10

// NDJSON is a Tracer that streams records as newline-delimited JSON with
// bounded buffering: at most ~ndjsonFlushAt bytes are held before a chunk
// goes to the writer, so long runs stream incrementally instead of buffering
// whole traces. Each chunk is a whole number of lines. Errors are sticky and
// surfaced by Flush; emission after an error is a no-op so a dead writer
// cannot corrupt a run.
type NDJSON struct {
	w   io.Writer
	buf []byte
	err error
}

// NewNDJSON returns an NDJSON tracer writing to w. Call Flush after the run.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{w: w, buf: make([]byte, 0, ndjsonFlushAt+512)}
}

// Emit implements Tracer.
func (t *NDJSON) Emit(r Record) {
	if t.err != nil {
		return
	}
	t.buf = AppendRecord(t.buf, r)
	if len(t.buf) >= ndjsonFlushAt {
		t.flush()
	}
}

func (t *NDJSON) flush() {
	if len(t.buf) == 0 {
		return
	}
	_, t.err = t.w.Write(t.buf)
	t.buf = t.buf[:0]
}

// Flush writes any buffered records and returns the first write error
// encountered, if any.
func (t *NDJSON) Flush() error {
	if t.err == nil {
		t.flush()
	}
	return t.err
}

// jsonRecord mirrors the wire format for decoding. Optional ints are
// pointers so a missing field maps back to -1, not 0.
type jsonRecord struct {
	T    int64  `json:"t"`
	K    string `json:"k"`
	Node *int   `json:"node"`
	Link *int   `json:"link"`
	Slot *int   `json:"slot"`
	V    int64  `json:"v"`
	X    int64  `json:"x"`
	Dur  int64  `json:"dur"`
	Sp   int64  `json:"sp"`
	Pa   int64  `json:"pa"`
	Sh   int    `json:"sh"`
	Aux  string `json:"aux"`
	OK   bool   `json:"ok"`
}

// ParseNDJSON reads an NDJSON trace stream and calls fn for each record in
// order. Records of a kind this build does not know (from a newer trace
// format) are skipped and counted, so a reader can report exactly how much
// it passed over. Malformed JSON, or fn returning an error, aborts the scan.
func ParseNDJSON(r io.Reader, fn func(Record) error) (unknown int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var jr jsonRecord
		if err := json.Unmarshal(raw, &jr); err != nil {
			return unknown, fmt.Errorf("trace line %d: %w", line, err)
		}
		kind, ok := ParseKind(jr.K)
		if !ok {
			unknown++
			continue
		}
		rec := Record{
			At:     sim.Time(jr.T),
			Kind:   kind,
			Node:   optInt(jr.Node),
			Link:   optInt(jr.Link),
			Slot:   optInt(jr.Slot),
			Value:  jr.V,
			Extra:  jr.X,
			Dur:    sim.Time(jr.Dur),
			Span:   jr.Sp,
			Parent: jr.Pa,
			Shard:  jr.Sh,
			Aux:    jr.Aux,
			OK:     jr.OK,
		}
		if err := fn(rec); err != nil {
			return unknown, err
		}
	}
	return unknown, sc.Err()
}

func optInt(p *int) int {
	if p == nil {
		return -1
	}
	return *p
}

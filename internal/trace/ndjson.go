// NDJSON capture stream: one JSON object per line, newline-delimited — the
// structured twin of the pcap export. Unlike WriteJSON's single indented
// document, the stream is consumable incrementally (tail -f, a pipe from
// arpsim, an S3 multipart upload), which is what the replay service ingests.
//
// The line schema is pinned by testdata/capture.ndjson.golden: changing a
// field name, dropping a field, or altering an encoding breaks downstream
// ingestion, so the golden test forces such changes to be deliberate.
package trace

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// NDJSONRecord is the wire schema of one capture stream line. Wire carries
// the full frame bytes (standard JSON base64); the remaining fields are the
// same decoded summaries WriteJSON exports, kept so the stream is greppable
// without decoding frames.
type NDJSONRecord struct {
	At      time.Duration `json:"at"`
	Port    int           `json:"port"`
	Src     string        `json:"src"`
	Dst     string        `json:"dst"`
	Type    string        `json:"type"`
	WireLen int           `json:"wireLen"`
	Info    string        `json:"info,omitempty"`
	Wire    []byte        `json:"wire"`
}

// WriteNDJSON exports the retained records as an NDJSON stream, oldest
// first. Each line round-trips through NDJSONReader.
func (c *Capture) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var wire []byte
	i := 0
	err := c.each(func(r Record) error {
		i++
		var err error
		wire, err = r.Frame.AppendEncode(wire[:0])
		if err != nil {
			return fmt.Errorf("ndjson record %d: %w", i-1, err)
		}
		line := NDJSONRecord{
			At:      r.At,
			Port:    r.Port,
			Src:     r.Src,
			Dst:     r.Dst,
			Type:    r.Type,
			WireLen: r.WireLen,
			Info:    r.Info,
			Wire:    wire,
		}
		if err := enc.Encode(&line); err != nil {
			return fmt.Errorf("ndjson record %d: %w", i-1, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// maxNDJSONLine bounds one stream line; a frame is at most ~1.5 KiB so a
// megabyte line is corruption, not capture data.
const maxNDJSONLine = 1 << 20

// NDJSONReader streams WireRecords from an NDJSON capture.
type NDJSONReader struct {
	s *bufio.Scanner
	n int
}

// NewNDJSONReader wraps r; lines beyond maxNDJSONLine fail the read.
func NewNDJSONReader(r io.Reader) *NDJSONReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), maxNDJSONLine)
	return &NDJSONReader{s: s}
}

// Next fills rec from the next non-empty line. io.EOF marks the end.
func (r *NDJSONReader) Next(rec *WireRecord) error {
	line, err := r.ReadLine()
	if err != nil {
		return err
	}
	return ParseNDJSONLine(line, rec)
}

// ReadLine returns the next non-empty raw line (valid until the following
// call), for callers that parse lines elsewhere — the replay engine ships
// raw lines to its worker pool and calls ParseNDJSONLine there.
func (r *NDJSONReader) ReadLine() ([]byte, error) {
	for r.s.Scan() {
		line := r.s.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		r.n++
		return line, nil
	}
	if err := r.s.Err(); err != nil {
		return nil, fmt.Errorf("ndjson line %d: %w", r.n, err)
	}
	return nil, io.EOF
}

// trimSpace is a minimal ASCII space/CR trim (scanner already strips LF).
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// ParseNDJSONLine decodes one stream line into rec. It is safe to call
// concurrently from multiple goroutines on distinct records — the sharded
// ingest path's per-worker parse step.
//
// Replay only needs two of the line's fields (at, wire), so the canonical
// shape WriteNDJSON emits is scanned directly — an order of magnitude
// cheaper than reflective unmarshaling, which is what makes NDJSON ingest
// keep up with pcap. Lines the scan does not recognize (foreign producer,
// reordered fields, escaping) fall back to full json.Unmarshal.
func ParseNDJSONLine(line []byte, rec *WireRecord) error {
	if at, wire, ok := scanNDJSONLine(line); ok {
		n := base64.StdEncoding.DecodedLen(len(wire))
		if cap(rec.Wire) < n {
			rec.Wire = make([]byte, n)
		}
		rec.Wire = rec.Wire[:n]
		m, err := base64.StdEncoding.Decode(rec.Wire, wire)
		if err == nil {
			if m == 0 {
				return fmt.Errorf("ndjson: record has no wire bytes")
			}
			rec.At = at
			rec.Wire = rec.Wire[:m]
			return nil
		}
		// fall through: let the full decoder produce the error (or cope
		// with whatever shape the scan misread)
	}
	var nr NDJSONRecord
	if err := json.Unmarshal(line, &nr); err != nil {
		return fmt.Errorf("ndjson: %w", err)
	}
	if len(nr.Wire) == 0 {
		return fmt.Errorf("ndjson: record has no wire bytes")
	}
	rec.At = nr.At
	rec.Wire = append(rec.Wire[:0], nr.Wire...)
	return nil
}

// ndjsonFields is the key sequence WriteNDJSON emits between at and wire.
// A key ending in a quote opens a string value; the others take an
// unsigned integer. info is omitted when empty.
var ndjsonFields = [...]string{`,"port":`, `,"src":"`, `,"dst":"`, `,"type":"`, `,"wireLen":`, `,"info":"`}

// scanNDJSONLine extracts the at and wire fields from a canonical stream
// line without a JSON decoder. Canonical means exactly the shape
// WriteNDJSON emits: {"at":<integer of at most 18 digits, so it cannot
// overflow>, then the ndjsonFields keys in order with unescaped values,
// then "wire":"<base64>"}. Anything else — a repeated or case-folded key
// that encoding/json would decode into at or wire, whitespace, escapes,
// reordered fields — yields ok=false and the caller takes the slow path.
func scanNDJSONLine(line []byte) (at time.Duration, wire []byte, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(`{"at":`))
	if !found {
		return 0, nil, false
	}
	neg := len(rest) > 0 && rest[0] == '-'
	if neg {
		rest = rest[1:]
	}
	n, digits := leadingInt(rest)
	if digits == 0 || digits > 18 || (digits > 1 && rest[0] == '0') {
		return 0, nil, false
	}
	if neg {
		n = -n
	}
	rest = rest[digits:]
	for i, key := range ndjsonFields {
		if !bytes.HasPrefix(rest, []byte(key)) {
			if i == len(ndjsonFields)-1 {
				break // info is optional
			}
			return 0, nil, false
		}
		rest = rest[len(key):]
		var end int
		if key[len(key)-1] == '"' {
			end = bytes.IndexByte(rest, '"') + 1
		} else {
			_, end = leadingInt(rest)
		}
		if end <= 0 {
			return 0, nil, false
		}
		rest = rest[end:]
	}
	head := line[:len(line)-len(rest)]
	rest, found = bytes.CutPrefix(rest, []byte(`,"wire":"`))
	if !found || !bytes.HasSuffix(rest, []byte(`"}`)) || bytes.IndexByte(head, '\\') >= 0 {
		return 0, nil, false
	}
	// base64 decoding rejects any quote or escape left in the value.
	return time.Duration(n), rest[:len(rest)-2], true
}

// leadingInt parses the decimal digits that open b, returning their value
// and count. Callers bound the count before trusting the value.
func leadingInt(b []byte) (n int64, digits int) {
	for digits < len(b) && digits < 19 && b[digits] >= '0' && b[digits] <= '9' {
		n = n*10 + int64(b[digits]-'0')
		digits++
	}
	return n, digits
}

package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// FuzzParseNDJSONLine checks the NDJSON line parser against encoding/json
// decoding the two fields replay consumes. Where both succeed they must
// agree; where the reference rejects a syntactically valid line (overflow,
// wrong type, bad base64) the parser must reject it too. Lines that are not
// JSON at all may be parsed leniently.
func FuzzParseNDJSONLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var rec WireRecord
		err := ParseNDJSONLine(line, &rec)
		var ref struct {
			At   time.Duration `json:"at"`
			Wire []byte        `json:"wire"`
		}
		refErr := json.Unmarshal(line, &ref)
		if refErr != nil {
			var syntax *json.SyntaxError
			if err == nil && !errors.As(refErr, &syntax) {
				t.Fatalf("accepted at=%v wire=%x; encoding/json: %v", rec.At, rec.Wire, refErr)
			}
			return
		}
		if err == nil && (rec.At != ref.At || !bytes.Equal(rec.Wire, ref.Wire)) {
			t.Fatalf("parsed at=%v wire=%x; encoding/json: at=%v wire=%x", rec.At, rec.Wire, ref.At, ref.Wire)
		}
	})
}

// FuzzPCAPReader feeds arbitrary bytes to the pcap reader: it must not
// panic, never return a record over maxPCAPRecord, and reach an error
// (io.EOF at the latest) within one record per 16-octet record header.
func FuzzPCAPReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewPCAPReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var rec WireRecord
		for n := 0; ; n++ {
			if n > len(data)/16 {
				t.Fatalf("%d records from %d bytes", n, len(data))
			}
			if err := r.Next(&rec); err != nil {
				return // io.EOF or a reported corruption
			}
			if len(rec.Wire) > maxPCAPRecord {
				t.Fatalf("record %d: %d bytes exceeds %d", n, len(rec.Wire), maxPCAPRecord)
			}
		}
	})
}

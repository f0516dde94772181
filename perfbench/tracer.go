package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into the
// program. Spans are held in memory (up to maxSpans; later ones only feed
// the per-name totals) and written out when the run ends. The nil tracer
// records nothing, which is how untraced operations run.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
	op      int   // operation the next spans belong to
	root    int32 // that operation's span, the parent of its calls
	busy    map[string]*busy
}

// span is one recorded call; times are nanoseconds since the tracer
// started, and Parent is -1 for an operation's own span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// busy totals the time spent in calls of one name.
type busy struct {
	ns    int64
	calls int
}

const maxSpans = 50_000

// spanRef is an open span.
type spanRef struct {
	id    int32 // index into spans, -1 when not kept
	start int64
	name  string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), root: -1, busy: make(map[string]*busy)}
}

func (t *tracer) begin(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	ref := spanRef{id: -1, start: now, name: name}
	if len(t.spans) < maxSpans {
		ref.id = int32(len(t.spans))
		t.spans = append(t.spans, span{ID: ref.id, Parent: t.root, Op: t.op, Name: name, Start: now})
	} else {
		t.dropped++
	}
	return ref
}

func (t *tracer) end(ref spanRef) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if ref.id >= 0 {
		t.spans[ref.id].End = now
	}
	b := t.busy[ref.name]
	if b == nil {
		b = &busy{}
		t.busy[ref.name] = b
	}
	b.ns += now - ref.start
	b.calls++
}

// beginOp opens operation op's span; the calls made until endOp become its
// children.
func (t *tracer) beginOp(op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.op, t.root = op, -1
	t.mu.Unlock()
	ref := t.begin("op")
	t.mu.Lock()
	t.root = ref.id
	t.mu.Unlock()
	return ref
}

func (t *tracer) endOp(ref spanRef) {
	if t == nil {
		return
	}
	t.end(ref)
	t.mu.Lock()
	t.root = -1
	t.mu.Unlock()
}

// seconds returns the total time spent in calls named name.
func (t *tracer) seconds(name string) float64 {
	if b := t.busy[name]; b != nil {
		return time.Duration(b.ns).Seconds()
	}
	return 0
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

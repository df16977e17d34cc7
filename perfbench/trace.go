package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 3 << 20

// span is one traced interval. Request spans carry the request's payload
// index in req; layer spans (storage, transport, checkpoint, Start) have
// req -1 and no parent, since from outside the program they cannot be tied
// to one request.
type span struct {
	name   uint16
	parent uint16 // name id of the parent span, noParent for roots
	pid    int8
	req    int64
	start  int64
	end    int64
}

const noParent = ^uint16(0)

// tracer collects spans and per-layer samples in memory for a traced run.
// Samples are only kept while recording is set (the measured window);
// spans are kept for the whole traced cluster's life.
type tracer struct {
	led       *ledger
	recording atomic.Bool

	mu      sync.Mutex
	names   []string
	nameIDs map[string]uint16
	spans   []span
	dropped int64

	storageOps, storageBytes     atomic.Int64
	sendFrames, sendBytes, sendN atomic.Int64
	applyNs, applyN              atomic.Int64

	smu       sync.Mutex
	durableUs []float64
	ckptMs    []float64
	ckptBytes []float64
	restoreMs []float64
	mergeWait []float64
}

func newTracer(led *ledger) *tracer {
	return &tracer{led: led, nameIDs: make(map[string]uint16)}
}

// idLocked interns a span name. t.mu held.
func (t *tracer) idLocked(name string) uint16 {
	if id, ok := t.nameIDs[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.nameIDs[name] = id
	return id
}

// span records one span; parent is "" for roots.
func (t *tracer) span(name, parent string, pid int, req, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	p := noParent
	if parent != "" {
		p = t.idLocked(parent)
	}
	t.spans = append(t.spans, span{name: t.idLocked(name), parent: p, pid: int8(pid), req: req, start: start, end: end})
}

// event records a zero-length request event under the broadcast root.
func (t *tracer) event(name string, pid int, req, at int64) {
	t.span(name, "abcast.broadcast", pid, req, at, at)
}

func (t *tracer) sample(dst *[]float64, v float64) {
	t.smu.Lock()
	*dst = append(*dst, v)
	t.smu.Unlock()
}

func (t *tracer) storageOp(name string, pid, bytes int, start, end int64) {
	t.span(name, "", pid, -1, start, end)
	if !t.recording.Load() {
		return
	}
	t.storageOps.Add(1)
	t.storageBytes.Add(int64(bytes))
	t.sample(&t.durableUs, float64(end-start)/1e3)
}

func (t *tracer) send(pid, frames, bytes int, start, end int64) {
	t.span("transport.send", "", pid, -1, start, end)
	if !t.recording.Load() {
		return
	}
	t.sendFrames.Add(int64(frames))
	t.sendBytes.Add(int64(bytes))
	t.sendN.Add(end - start)
}

func (t *tracer) checkpoint(pid, bytes int, start, end int64) {
	t.span("rsm.checkpoint", "", pid, -1, start, end)
	if !t.recording.Load() {
		return
	}
	t.sample(&t.ckptMs, ms(end-start))
	t.sample(&t.ckptBytes, float64(bytes))
}

// restore records one OnRestore's Restore call; restores happen on
// recovery, so they are kept whether or not the window is recording.
func (t *tracer) restore(pid int, start, end int64) {
	t.span("rsm.restore", "", pid, -1, start, end)
	t.sample(&t.restoreMs, ms(end-start))
}

// start records one Process/Sharded Start call.
func (t *tracer) start(pid int, start, end int64) {
	t.span("abcast.start", "", pid, -1, start, end)
}

func (t *tracer) apply(ns int64) {
	if t.recording.Load() {
		t.applyNs.Add(ns)
		t.applyN.Add(1)
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	type rec struct {
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		PID     int    `json:"pid"`
		Req     int64  `json:"req"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, s := range t.spans {
		r := rec{Name: t.names[s.name], PID: int(s.pid), Req: s.req, StartNs: s.start - 1, EndNs: s.end - 1}
		if s.parent != noParent {
			r.Parent = t.names[s.parent]
		}
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Spans of one
// operation share Op; Parent names the enclosing span ("" at the top).
type span struct {
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // offset from the recorder's origin
	Dur    float64 `json:"dur_ms"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a span that started at start and lasted dur.
func (r *recorder) add(op int64, name, parent string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	sp := span{Op: op, Name: name, Parent: parent, Start: ms(start.Sub(r.origin)), Dur: ms(dur)}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// time runs fn and records it as a span.
func (r *recorder) time(op int64, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	r.add(op, name, parent, start, d)
	return d
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err = enc.Encode(sp); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

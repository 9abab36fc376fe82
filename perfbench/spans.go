package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one task or cell share a group.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced state: every method is a no-op, so the measured code paths of an
// untraced run pay one nil check.
type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns it with a fresh id; close it with end.
func (r *recorder) open(name, group string, parent int64) span {
	if r == nil {
		return span{}
	}
	return span{ID: r.next.Add(1), Parent: parent, Group: group, Name: name, Start: time.Since(r.t0).Nanoseconds()}
}

// end closes the span now and keeps it.
func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	s.End = time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines, sorted by start time.
func (r *recorder) write(path string) error {
	spans := r.snapshot()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time, by span id: its duration minus
// the part of its interval that its direct children cover. Overlapping
// children (two workers under one parent) count their union once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a module, recorded by the benchmark
// around the call. Its module is the name up to the first dot.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so untraced runs pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent ends. It is 0 when tracing is off.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id, parent, name, start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds()})
	t.mu.Unlock()
}

// time runs fn as a span named name under parent.
func (t *tracer) time(parent int64, name string, fn func(id int64) error) error {
	id := t.id()
	start := time.Now()
	err := fn(id)
	t.add(id, parent, name, start, time.Now())
	return err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTime sums, per module, each span's duration minus the part of
// its interval its children cover.
func (t *tracer) selfTime() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		module, _, _ := strings.Cut(s.Name, ".")
		out[module] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	var total float64
	lo, hi := parent.Start, parent.Start // current merged run [lo, hi)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

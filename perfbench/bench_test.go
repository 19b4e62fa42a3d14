package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"knnpc/internal/dataset"
	"knnpc/internal/load"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 991..1000 lie beyond
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 || !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("median = %g (input now %v), want 2 with the input untouched", m, xs)
	}
}

func TestSetPercentileSkipsThinTails(t *testing.T) {
	r := newResult()
	r.setPercentile("read_p99_ms", make([]float64, 500), 0.99)
	if _, ok := r.values["read_p99_ms"]; ok || len(r.notes) != 1 {
		t.Fatalf("p99 of 500 samples recorded (%v) or not noted (%q)", r.values, r.notes)
	}
	r.setPercentile("read_p99_ms", make([]float64, 2000), 0.99)
	if r.counts["read_p99_ms"] != 2000 {
		t.Fatalf("p99 of 2000 samples: count %d, want 2000", r.counts["read_p99_ms"])
	}
}

func TestSelfTimes(t *testing.T) {
	// pass [0,10] ⊃ delta [0,2], Iterate [2,10] ⊃ phases that overlap
	// each other and spill past the parent; load [1,4] is a root.
	spans := []span{
		{ID: 1, Name: "core.pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "delta.ApplyDeltas", Start: 0, End: 2},
		{ID: 3, Parent: 1, Name: "core.Iterate", Start: 2, End: 10},
		{ID: 4, Parent: 3, Name: "partition.phase1", Start: 2, End: 3},
		{ID: 5, Parent: 3, Name: "knn.phase4", Start: 4, End: 7},
		{ID: 6, Parent: 3, Name: "knn.phase4", Start: 6, End: 8}, // overlaps 5
		{ID: 7, Parent: 3, Name: "profile.phase5", Start: 9, End: 11},
		{ID: 8, Name: "load.neighbors", Start: 1, End: 4},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"core":      0 + 2, // pass fully covered; Iterate minus [2,3]∪[4,8]∪[9,10]
		"delta":     2,
		"partition": 1,
		"knn":       3 + 2,
		"profile":   2,
		"load":      3,
	}
	for m, w := range want {
		if math.Abs(got[m]-w) > 1e-9 {
			t.Errorf("self time of %s = %g, want %g", m, got[m], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("modules %v, want %v", got, want)
	}
}

func TestFreshnessFromPassBoundaries(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Add 2 reached the store before add 1, so the first pass held it:
	// cumulative adds stay 1 until the second pass commits 1 and 2
	// together. Add 3 was acknowledged after the last pass began and
	// is committed by none. Add 0's pass ended before its ack arrived
	// back at the client, which counts as 0.
	acks := map[int]time.Time{0: at(12), 1: at(30), 2: at(5), 3: at(70)}
	passes := []pass{{at(10), 0}, {at(20), 1}, {at(60), 3}}
	fresh, uncommitted := freshness(acks, passes)
	slices.Sort(fresh)
	if want := []float64{8, 30, 55}; !slices.Equal(fresh, want) {
		// add 0: committed by the pass ending at 20 → 8 ms;
		// add 1: 60 - 30; add 2: held, 60 - 5.
		t.Errorf("freshness = %v, want %v", fresh, want)
	}
	if uncommitted != 1 {
		t.Errorf("uncommitted = %d, want 1", uncommitted)
	}
	early := map[int]time.Time{0: at(25)}
	if f, _ := freshness(early, []pass{{at(20), 1}}); !slices.Equal(f, []float64{0}) {
		t.Errorf("add committed before its ack: freshness %v, want [0]", f)
	}
}

func TestServeChecks(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := func(kind load.Kind, user uint32, done int, err error) opRecord {
		return opRecord{op: load.Op{Kind: kind, User: user}, done: at(done), lat: time.Millisecond, err: err}
	}
	passes := []pass{{at(100), 1}}
	for _, c := range []struct {
		name string
		ops  []opRecord
		ok   bool
	}{
		{"clean", []opRecord{
			rec(load.AddUser, serveUsers, 10, nil),
			rec(load.DelUser, 5, 20, nil),
			rec(load.Neighbors, 5, 30, load.ErrMiss), // deleted first: correct
			rec(load.Neighbors, 6, 40, nil),
		}, true},
		{"miss on a base user never deleted", []opRecord{
			rec(load.Neighbors, 6, 40, load.ErrMiss),
		}, false},
		{"miss before the delete's ack", []opRecord{
			rec(load.Neighbors, 5, 10, load.ErrMiss),
			rec(load.DelUser, 5, 20, nil),
		}, true},
		{"failed add", []opRecord{
			rec(load.AddUser, serveUsers, 10, errors.New("load: HTTP 404")),
		}, false},
		{"failed delete", []opRecord{
			rec(load.DelUser, 5, 10, fmt.Errorf("%w: HTTP 503", load.ErrShed)),
		}, false},
		{"unclassified read error", []opRecord{
			rec(load.Profile, 5, 10, errors.New("load: HTTP 500")),
		}, false},
	} {
		res := newResult()
		reportLoad(res, c.ops, passes, time.Second)
		if res.correct() != c.ok {
			t.Errorf("%s: correct = %v, want %v (failures %q)", c.name, res.correct(), c.ok, res.failures)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, err := profiles(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := profiles(300, 7)
	c, _ := profiles(300, 8)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("profiles: same seed must repeat, another seed must differ")
	}

	p1, err := servePlan(7, serveRate, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := servePlan(7, serveRate, 2, true)
	p3, _ := servePlan(8, serveRate, 2, true)
	if !reflect.DeepEqual(p1, p2) || reflect.DeepEqual(p1, p3) {
		t.Error("serving plan: same seed must repeat, another seed must differ")
	}
	probes := 0
	for i, op := range p1 {
		if op.Weight == probeMark {
			probes++
		}
		if op.Kind == load.Neighbors && op.User >= serveUsers {
			t.Fatalf("op %d reads user %d, beyond the base users", i, op.User)
		}
		if i > 0 && op.At < p1[i-1].At {
			t.Fatalf("merged plan out of order at op %d", i)
		}
	}
	if probes != 2*probeRate || len(p1) != 2*serveRate {
		t.Errorf("2 s traced plan: %d ops with %d probes, want %d with %d: the probe is part of the offered load",
			len(p1), probes, 2*serveRate, 2*probeRate)
	}

	if !reflect.DeepEqual(presets(defaultSeed), dataset.PaperPresets()) {
		t.Error("the default seed must reproduce the Table 1 presets")
	}
	for i, s := range presets(defaultSeed + 1) {
		if s.Seed == dataset.PaperPresets()[i].Seed {
			t.Errorf("preset %s keeps its seed at another benchmark seed", s.Name)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON keeps the metric names and units the
// command prints equal to the ones BENCHMARK.json declares.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var gated []string
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w.name)
		}
	}
	var listed []string
	for _, w := range doc.Work {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(listed, gated) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command gates %v", listed, gated)
	}
}

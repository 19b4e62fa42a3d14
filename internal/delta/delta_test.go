package delta

import (
	"math/rand"
	"reflect"
	"testing"

	"knnpc/internal/graph"
	"knnpc/internal/profile"
)

// fixture builds a random graph plus clustered profiles so greedy
// search has structure to exploit.
func fixture(t *testing.T, n, k int) (*graph.KNN, *profile.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := graph.RandomKNN(n, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]profile.Vector, n)
	for u := 0; u < n; u++ {
		cluster := u % 4
		entries := []profile.Entry{
			{Item: uint32(cluster*100 + rng.Intn(10)), Weight: 1 + rng.Float32()},
			{Item: uint32(cluster*100 + 10 + rng.Intn(10)), Weight: 1 + rng.Float32()},
			{Item: uint32(1000 + rng.Intn(50)), Weight: rng.Float32()},
		}
		v, err := profile.NewVector(entries)
		if err != nil {
			t.Fatal(err)
		}
		vecs[u] = v
	}
	return g, profile.NewStoreFromVectors(vecs)
}

func lookup(store *profile.Store) func(uint32) (profile.Vector, error) {
	return func(u uint32) (profile.Vector, error) { return store.Get(u), nil }
}

func TestInsertDeterministicAndBounded(t *testing.T) {
	const n, k = 120, 6
	g, store := fixture(t, n, k)
	vec, err := profile.NewVector([]profile.Entry{{Item: 105, Weight: 2}, {Item: 115, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: k, Sim: profile.Cosine{}}

	g1 := g.Clone()
	g1.Grow(1)
	r1, err := Insert(g1, lookup(store), cfg, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Neighbors) == 0 || len(r1.Neighbors) > k {
		t.Fatalf("got %d neighbors, want 1..%d", len(r1.Neighbors), k)
	}
	if got := g1.Neighbors(n); !reflect.DeepEqual(got, r1.Neighbors) {
		t.Fatalf("graph list %v != result %v", got, r1.Neighbors)
	}
	if r1.SimEvals <= 0 || r1.SimEvals >= n*k {
		t.Fatalf("sim evals %d outside (0, n·K=%d) — insertion should beat a full pass", r1.SimEvals, n*k)
	}

	g2 := g.Clone()
	g2.Grow(1)
	r2, err := Insert(g2, lookup(store), cfg, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("insert not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestInsertPartitionRestriction(t *testing.T) {
	const n, k = 120, 6
	g, store := fixture(t, n, k)
	vec, err := profile.NewVector([]profile.Entry{{Item: 205, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	partOf := func(u uint32) int { return int(u) % 8 }
	g1 := g.Clone()
	g1.Grow(1)
	r, err := Insert(g1, lookup(store), Config{K: k, Sim: profile.Cosine{}, PartitionOf: partOf}, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	// Unrestricted pool for the same insert must be at least as large.
	g2 := g.Clone()
	g2.Grow(1)
	full, err := Insert(g2, lookup(store), Config{K: k, Sim: profile.Cosine{}}, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Candidates > full.Candidates {
		t.Fatalf("restricted pool %d > unrestricted %d", r.Candidates, full.Candidates)
	}
	if len(r.Neighbors) == 0 {
		t.Fatal("restricted insert found no neighbors")
	}
}

func TestInsertSkipsDead(t *testing.T) {
	const n, k = 60, 4
	g, store := fixture(t, n, k)
	vec := store.Get(3) // clone of an existing profile: user 3 would top the list
	dead := map[uint32]bool{3: true}
	g.Grow(1)
	r, err := Insert(g, lookup(store), Config{K: k, Sim: profile.Cosine{}, Dead: func(u uint32) bool { return dead[u] }}, n, vec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Neighbors {
		if dead[v] {
			t.Fatalf("tombstoned user %d chosen as neighbor", v)
		}
	}
}

func TestRemoveStripsEverywhere(t *testing.T) {
	const n, k = 80, 5
	g, _ := fixture(t, n, k)
	const victim = 17
	touched, err := Remove(g, victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Neighbors(victim)) != 0 {
		t.Fatalf("victim still has %d out-edges", len(g.Neighbors(victim)))
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			if v == victim {
				t.Fatalf("user %d still links to removed %d", u, victim)
			}
		}
	}
	for _, v := range touched {
		if len(g.Neighbors(v)) >= k {
			t.Fatalf("touched user %d still has a full list", v)
		}
	}
}

func TestTrackerScores(t *testing.T) {
	tr := NewTracker(10)
	if got := tr.MaxScore(); got != 0 {
		t.Fatalf("empty tracker MaxScore = %g", got)
	}
	tr.ResetFull([]int{100, 50}, 3)
	if got := tr.LastFullEpoch(); got != 3 {
		t.Fatalf("LastFullEpoch = %d", got)
	}
	tr.RecordAdd(0, 20)   // 1 add + 20/10 touched over 100 members = 0.03
	tr.RecordDelete(1, 0) // 1 delete over 50 members = 0.02
	if got, want := tr.Score(0), 0.03; got != want {
		t.Fatalf("Score(0) = %g, want %g", got, want)
	}
	if got, want := tr.Score(1), 0.02; got != want {
		t.Fatalf("Score(1) = %g, want %g", got, want)
	}
	if got, want := tr.MaxScore(), 0.03; got != want {
		t.Fatalf("MaxScore = %g, want %g", got, want)
	}
	// Out-of-range partitions grow rather than panic.
	tr.RecordAdd(5, 0)
	if tr.NumPartitions() != 6 {
		t.Fatalf("NumPartitions = %d after growth", tr.NumPartitions())
	}
	snap := tr.Snapshot()
	if snap[5].Adds != 1 || snap[0].Members != 100 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	tr.ResetFull([]int{10}, 4)
	if tr.MaxScore() != 0 || tr.NumPartitions() != 1 {
		t.Fatal("ResetFull did not clear counters")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	q.Enqueue(Mutation{Op: Add, User: 1})
	q.Enqueue(Mutation{Op: Update, User: 3})
	q.Enqueue(Mutation{Op: Delete, User: 2})
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Drain(false)
	if len(got) != 2 || got[0].User != 1 || got[1].Op != Delete {
		t.Fatalf("drained %+v", got)
	}
	if len(q.Drain(false)) != 0 {
		t.Fatal("adds and deletes left after their drain")
	}
	if q.Len() != 1 {
		t.Fatalf("the user drain took the update: Len = %d", q.Len())
	}
	if upd := q.Drain(true); len(upd) != 1 || upd[0].User != 3 {
		t.Fatalf("update drain = %+v", upd)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after both drains")
	}
}

// Package delta implements incremental maintenance of a committed KNN
// graph between full five-phase iterations: new users are inserted by
// a greedy search over the committed graph followed by a phase-2-style
// candidate generation restricted to the partitions the search's seed
// neighbors live in, deleted users are tombstoned and stripped from
// every neighbor list, and a per-partition staleness counter decides —
// against a configurable threshold — when the accumulated drift
// justifies scheduling a real iteration.
//
// The package is deliberately engine-agnostic: it operates on
// graph.KNN plus a profile lookup function, so internal/core can apply
// deltas to a private clone inside its commit window and tests can
// drive the insertion path against in-memory fixtures.
package delta

import (
	"sync"

	"knnpc/internal/profile"
)

// Op discriminates the records of the mutation log: the two user-level
// mutations of the delta path and the paper's lazy profile update.
type Op uint8

// The mutation operations.
const (
	// Add inserts a new user (or upserts an existing one, replacing
	// its profile and recomputing its neighborhood).
	Add Op = iota + 1
	// Delete tombstones a user: its neighbor lists empty, it vanishes
	// from every other user's list, and serve lookups miss.
	Delete
	// Update changes one profile at the next phase 5, not through the
	// delta path; the delta pass leaves it queued.
	Update
)

// Mutation is one record of the mutation log: an Add carries the
// user's full profile vector, a Delete only the id, an Update the
// profile change.
type Mutation struct {
	Op      Op
	User    uint32
	Profile profile.Vector // Add only
	Update  profile.Update // Update only; Update.User == User
}

// Queue collects mutation-log records between the passes that consume
// them. Safe for concurrent Enqueue.
type Queue struct {
	mu      sync.Mutex
	pending []Mutation
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Enqueue appends a mutation for the next delta pass.
func (q *Queue) Enqueue(m Mutation) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, m)
}

// Len reports the number of queued mutations.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Drain removes and returns the pending Update records when updates
// is set, the adds and deletes otherwise, in FIFO order. Records of the
// other kind stay queued.
func (q *Queue) Drain(updates bool) []Mutation {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out, kept []Mutation
	for _, m := range q.pending {
		if (m.Op == Update) == updates {
			out = append(out, m)
		} else {
			kept = append(kept, m)
		}
	}
	q.pending = kept
	return out
}

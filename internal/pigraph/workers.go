package pigraph

import (
	"fmt"
	"sync"
)

// steps reports the number of scoring steps (pairs plus the optional
// self-shard) the visit contributes — the unit the tape split balances.
func (v Visit) steps() int {
	n := len(v.Peers)
	if v.Self {
		n++
	}
	return n
}

// Split partitions the schedule's visit sequence into at most workers
// contiguous segments, cut only at pair/self boundaries so no pair ever
// spans two segments. A visit may be split between its peers: the first
// piece keeps the self-shard, later pieces repeat the primary (each
// worker's slot machine starts empty, so the repeated primary simply
// becomes that worker's first load). Segments are balanced by step
// count with the classic ceil(remaining/segments-left) quota, so the
// split — and therefore every per-worker op tape — is a deterministic
// function of (schedule, workers) alone.
//
// Split(1), or splitting a schedule with fewer steps than workers into
// per-step segments, returns the visits unchanged in order: the
// concatenation of the segments' visit sequences is always equivalent,
// step for step, to the original schedule.
func (s *Schedule) Split(workers int) []*Schedule {
	total := 0
	for _, v := range s.Visits {
		total += v.steps()
	}
	if workers <= 1 || total <= 1 {
		return []*Schedule{s}
	}
	if workers > total {
		workers = total
	}

	out := make([]*Schedule, 0, workers)
	cur := &Schedule{NumPartitions: s.NumPartitions}
	curSteps := 0
	remaining := total
	quota := func() int {
		segsLeft := workers - len(out)
		return (remaining + segsLeft - 1) / segsLeft
	}
	closeSegment := func() {
		out = append(out, cur)
		remaining -= curSteps
		cur = &Schedule{NumPartitions: s.NumPartitions}
		curSteps = 0
	}
	for _, v := range s.Visits {
		for v.steps() > 0 {
			need := quota() - curSteps
			if have := v.steps(); have <= need {
				cur.Visits = append(cur.Visits, v)
				curSteps += have
				if curSteps == quota() && len(out) < workers-1 {
					closeSegment()
				}
				break
			}
			// The visit straddles the quota: cut it at a pair boundary.
			// The head piece keeps the self-shard (it precedes every
			// pair of the visit on the tape).
			head := Visit{Primary: v.Primary, Self: v.Self}
			n := need
			if head.Self {
				n--
			}
			head.Peers = v.Peers[:n]
			v = Visit{Primary: v.Primary, Peers: v.Peers[n:]}
			cur.Visits = append(cur.Visits, head)
			curSteps += need
			closeSegment()
		}
	}
	if len(cur.Visits) > 0 {
		closeSegment()
	}
	return out
}

// Execute walks the schedule under an S-slot memory model, sharded
// across opts.Workers tape workers, and returns the operation counts —
// the one execution entry point. The visit sequence is Split into
// contiguous segments; each worker plans its segment's op tape (memory
// starts empty and is drained at the end) and replays it on one
// cursor with its own Slots-slot LRU budget, overlapping whichever I/O
// streams ExecOptions' depths enable (see runTape). For any fixed
// (Slots, Workers) the cursors' op sequences — and therefore the
// Loads/Unloads accounting — are identical at every pipelining depth;
// the streams only overlap I/O with computation.
//
// cbFor is called once per worker, before any worker starts, to build
// that worker's callback set. A single segment runs on the caller's
// goroutine; with several, each runs on its own goroutine, so any
// state distinct workers' callbacks share (a common partition store,
// accumulators) must be synchronized by the caller.
//
// The returned total is the exact field-wise sum of the per-worker
// results, which are also returned (indexed by worker). Totals are
// deterministic for a fixed (Slots, Workers): the split is
// deterministic and each segment's tape depends only on Slots.
//
// Every worker runs to completion (or to its own first error) before
// the call returns — background prefetches and write-backs are drained
// per worker. The first error in worker order is returned, annotated
// with the worker index; callers that want cross-worker abort
// propagate a cancellation through their callbacks.
func (s *Schedule) Execute(cbFor func(worker int) Callbacks, opts ExecOptions) (Result, []Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Result{}, nil, err
	}
	segments := s.Split(opts.Workers)
	// Build every worker's callbacks before the first worker starts —
	// the documented guarantee that lets cbFor populate shared state
	// without racing a running sibling.
	cbs := make([]Callbacks, len(segments))
	for w := range segments {
		cbs[w] = cbFor(w)
	}
	per := make([]Result, len(segments))
	errs := make([]error, len(segments))
	run := func(w int) {
		tape, err := segments[w].plan(opts.Slots)
		if err != nil {
			errs[w] = err
			return
		}
		per[w], errs[w] = runTape(tape, cbs[w], opts)
	}
	if len(segments) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := range segments {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
		wg.Wait()
	}

	var total Result
	for _, r := range per {
		total.Add(r)
	}
	for w, err := range errs {
		if err != nil {
			return total, per, fmt.Errorf("pigraph: worker %d/%d: %w", w, len(segments), err)
		}
	}
	return total, per, nil
}

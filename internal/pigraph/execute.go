package pigraph

import "fmt"

// Callbacks receive the events of a schedule execution. Nil callbacks
// are skipped: a nil Fetch hands Commit a nil value, a nil Evict hands
// Flush a nil payload. The engine's phase 4 passes real partition I/O
// here, which is what guarantees the engine's measured load/unload
// count equals the simulated one.
type Callbacks struct {
	// Pair is called with both partitions resident to process the
	// tuple shards of the unordered pair {primary, peer}.
	Pair func(primary, peer uint32) error
	// Self is called with p resident to process p's self-shard.
	Self func(p uint32) error

	// Fetch and Commit are the two halves of every load. Fetch reads
	// partition p off the storage medium WITHOUT making it resident;
	// Commit makes the fetched value resident. Commit always runs on
	// the executor's cursor, serialized with every other cursor-side
	// callback. With PrefetchDepth 0, Fetch runs on the cursor too,
	// directly before its Commit. With PrefetchDepth > 0 the executor
	// may run Fetch on a background goroutine concurrently with
	// Pair/Self/Evict of other partitions (never concurrently with a
	// write-back of p itself — the executor orders each fetch after the
	// completion of the write-back that precedes it on the tape, even
	// when that write runs asynchronously).
	Fetch  func(p uint32) (any, error)
	Commit func(p uint32, data any) error
	// Discard releases a successfully fetched value that will never be
	// committed — it is called (on the executor's goroutine, after the
	// fetch completes) for each in-flight prefetch abandoned when
	// execution aborts early, and for a fetched value whose Commit
	// returned an error (a failed commit leaves the value un-committed,
	// so its staged resources must still be released). Callers that
	// charge resources in Fetch (memory budgets, pinned buffers)
	// release them here.
	Discard func(p uint32, data any)

	// Evict and Flush are the two halves of every unload — the
	// write-back analogue of Fetch/Commit. Evict removes partition p
	// from residency and returns the payload to be written back; it
	// runs on the executor's cursor at the unload's tape position, so
	// the Loads/Unloads accounting is untouched. Flush writes the
	// evicted payload to the storage medium. With WritebackDepth 0 it
	// runs on the cursor directly after its Evict. With WritebackDepth
	// > 0 the executor runs it on a background goroutine, bounded to
	// WritebackDepth writes in flight, concurrently with any cursor
	// work and with fetches of OTHER partitions. A load of p never
	// observes a pending flush of p (the write-back hazard): the
	// executor blocks that load — or its background fetch — until the
	// flush lands, and surfaces the flush's error there. Every flush
	// completes before Execute returns.
	Evict func(p uint32) (any, error)
	Flush func(p uint32, data any) error

	// PairAhead announces, on the executor's cursor, that the tuple
	// shards of the unordered pair {a, b} (or of a's self-shard when
	// a == b) will be processed soon — at most ExecOptions.ShardAhead
	// pair/self steps ahead of the corresponding Pair/Self call.
	// Implementations typically start an asynchronous shard read and
	// return immediately; shard data is written before execution
	// starts, so there is no hazard to order against. Nil disables the
	// announcements.
	PairAhead func(a, b uint32)
}

// ExecOptions tunes schedule execution. The zero value reproduces the
// paper's setting: two memory slots, fully serial I/O. None of the
// pipelining knobs ever change the Loads/Unloads accounting — the op
// tape is fixed by Slots alone; they only overlap I/O with computation.
type ExecOptions struct {
	// Slots is the memory budget S: at most S partitions resident at
	// once (0 defaults to 2, the paper's model; values below 2 are an
	// error — a pair needs both endpoints resident).
	Slots int
	// PrefetchDepth is the asynchronous load lookahead: how many
	// upcoming partition loads may be in flight (fetched on background
	// goroutines) ahead of the scoring cursor. 0 (the default) is
	// serial loading. Each in-flight fetch transiently holds one
	// partition beyond the S resident slots.
	PrefetchDepth int
	// WritebackDepth is the asynchronous write-back bound: how many
	// evicted partitions may be in flight to storage behind the cursor
	// (flushed on background goroutines). 0 (the default) is serial
	// unloading. Each in-flight write transiently holds one partition's
	// payload beyond the S resident slots, symmetric to PrefetchDepth.
	WritebackDepth int
	// ShardAhead is the tuple-shard read lookahead: how many upcoming
	// pair/self steps are announced through Callbacks.PairAhead before
	// the cursor reaches them, so their shard bytes can be read off
	// storage concurrently with scoring. 0 (the default) disables the
	// announcements.
	ShardAhead int
	// Workers shards the op tape itself: the schedule's visit sequence
	// is cut into that many contiguous segments at pair boundaries (see
	// Schedule.Split) and each segment runs on its own goroutine with
	// its own Slots-slot LRU budget. 0 or 1 (the default) is the
	// single-cursor execution; the accounting invariant generalizes:
	// for a fixed (Slots, Workers) the per-worker tapes — and therefore
	// the per-worker and summed Loads/Unloads — are deterministic, and
	// Workers=1 reproduces the single-cursor counts bit for bit.
	Workers int
}

// Validate rejects nonsensical budgets with a descriptive error: the
// executor never silently clamps an out-of-range option. Slots may be 0
// (the documented "default to 2"); 1 or negative is an error because a
// pair needs both endpoints resident.
func (o ExecOptions) Validate() error {
	if o.Slots != 0 && o.Slots < 2 {
		return fmt.Errorf("pigraph: ExecOptions.Slots = %d; need at least 2 resident partitions to process a pair (0 selects the default of 2)", o.Slots)
	}
	if o.PrefetchDepth < 0 {
		return fmt.Errorf("pigraph: ExecOptions.PrefetchDepth = %d; the async load lookahead cannot be negative (0 disables prefetching)", o.PrefetchDepth)
	}
	if o.WritebackDepth < 0 {
		return fmt.Errorf("pigraph: ExecOptions.WritebackDepth = %d; the async write-back bound cannot be negative (0 disables async write-back)", o.WritebackDepth)
	}
	if o.ShardAhead < 0 {
		return fmt.Errorf("pigraph: ExecOptions.ShardAhead = %d; the shard read lookahead cannot be negative (0 disables shard announcements)", o.ShardAhead)
	}
	if o.Workers < 0 {
		return fmt.Errorf("pigraph: ExecOptions.Workers = %d; the tape worker count cannot be negative (0 selects the single-cursor default)", o.Workers)
	}
	return nil
}

func (o ExecOptions) withDefaults() (ExecOptions, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	if o.Slots == 0 {
		o.Slots = 2
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o, nil
}

// Result summarizes an execution: the load/unload operation counts the
// paper's Table 1 reports, plus processed work tallies.
type Result struct {
	Loads   int64
	Unloads int64
	Pairs   int64
	Selfs   int64
	// PrefetchedLoads is the subset of Loads whose I/O was issued
	// asynchronously ahead of the cursor (always 0 for serial
	// execution). It is reported separately so Table 1's Ops metric
	// stays comparable across execution modes: Ops counts every load
	// exactly once whether it was prefetched or not.
	PrefetchedLoads int64
	// AsyncUnloads is the subset of Unloads whose write-back was issued
	// asynchronously behind the cursor (always 0 unless WritebackDepth
	// is set). Like PrefetchedLoads, it never changes the Ops metric:
	// every unload is counted exactly once at its tape position.
	AsyncUnloads int64
}

// Ops reports Loads + Unloads, Table 1's metric.
func (r Result) Ops() int64 { return r.Loads + r.Unloads }

// Add accumulates o into r — used to sum per-worker results into the
// totals of a sharded execution.
func (r *Result) Add(o Result) {
	r.Loads += o.Loads
	r.Unloads += o.Unloads
	r.Pairs += o.Pairs
	r.Selfs += o.Selfs
	r.PrefetchedLoads += o.PrefetchedLoads
	r.AsyncUnloads += o.AsyncUnloads
}

// opKind discriminates the entries of the op tape.
type opKind uint8

const (
	opLoad opKind = iota
	opUnload
	opPair
	opSelf
)

// count tallies one tape entry of kind k in r.
func (r *Result) count(k opKind) {
	switch k {
	case opLoad:
		r.Loads++
	case opUnload:
		r.Unloads++
	case opPair:
		r.Pairs++
	case opSelf:
		r.Selfs++
	}
}

// op is one step of the fully resolved execution plan. For opPair, a is
// the primary and b the peer; otherwise b is unused.
type op struct {
	kind opKind
	a, b uint32
}

// slotMachine models the paper's memory constraint generalized to S
// slots: at most S partitions resident. Eviction is least-recently-used
// with the current primary pinned. It emits the op tape instead of
// invoking callbacks, so the same plan drives every pipelining depth
// identically.
type slotMachine struct {
	resident []int64 // partition ids; -1 = empty
	lastUsed []int64
	tick     int64
	tape     []op
}

func newSlotMachine(slots int) *slotMachine {
	sm := &slotMachine{
		resident: make([]int64, slots),
		lastUsed: make([]int64, slots),
	}
	for i := range sm.resident {
		sm.resident[i] = -1
	}
	return sm
}

// ensure makes p resident. pinned (≥0) names a partition that must not
// be evicted; pass -1 to pin nothing.
func (sm *slotMachine) ensure(p uint32, pinned int64) error {
	sm.tick++
	for i := range sm.resident {
		if sm.resident[i] == int64(p) {
			sm.lastUsed[i] = sm.tick
			return nil
		}
	}
	slot := -1
	for i := range sm.resident {
		if sm.resident[i] == -1 {
			slot = i
			break
		}
	}
	if slot == -1 {
		// Evict the least recently used slot that is not pinned.
		best := int64(1) << 62
		for i := range sm.resident {
			if sm.resident[i] == pinned {
				continue
			}
			if sm.lastUsed[i] < best {
				best = sm.lastUsed[i]
				slot = i
			}
		}
		if slot == -1 {
			return fmt.Errorf("pigraph: all %d slots pinned while loading %d", len(sm.resident), p)
		}
		sm.tape = append(sm.tape, op{kind: opUnload, a: uint32(sm.resident[slot])})
	}
	sm.resident[slot] = int64(p)
	sm.lastUsed[slot] = sm.tick
	sm.tape = append(sm.tape, op{kind: opLoad, a: p})
	return nil
}

// drain unloads everything still resident, in slot order.
func (sm *slotMachine) drain() {
	for i := range sm.resident {
		if sm.resident[i] == -1 {
			continue
		}
		sm.tape = append(sm.tape, op{kind: opUnload, a: uint32(sm.resident[i])})
		sm.resident[i] = -1
	}
}

// plan resolves the schedule into the op tape of an S-slot execution.
// Memory starts empty and is drained at the end.
func (s *Schedule) plan(slots int) ([]op, error) {
	sm := newSlotMachine(slots)
	for _, v := range s.Visits {
		if err := sm.ensure(v.Primary, -1); err != nil {
			return nil, err
		}
		if v.Self {
			sm.tape = append(sm.tape, op{kind: opSelf, a: v.Primary})
		}
		for _, peer := range v.Peers {
			if err := sm.ensure(peer, int64(v.Primary)); err != nil {
				return nil, err
			}
			sm.tape = append(sm.tape, op{kind: opPair, a: v.Primary, b: peer})
		}
	}
	sm.drain()
	return sm.tape, nil
}

// future is one in-flight background fetch.
type future struct {
	p    uint32
	done chan struct{}
	data any
	err  error
}

// writeback is one in-flight background flush of an evicted partition.
type writeback struct {
	p    uint32
	done chan struct{}
	err  error
}

// runTape replays one segment's tape on the calling goroutine — the
// cursor — with up to three I/O streams overlapped against its compute
// work, each sized by its depth in opts:
//
//   - up to PrefetchDepth partition fetches in flight ahead of the
//     cursor. A fetch for the load at tape index i is only issued once
//     the latest unload of the same partition before i has executed,
//     and the fetch goroutine additionally waits for that unload's
//     asynchronous flush to land (the write-back hazard): fetching
//     earlier would read stale bytes.
//   - up to WritebackDepth evicted partitions in flight to storage
//     behind the cursor. Residency changes at the unload's tape
//     position (Evict, on the cursor), so the accounting is untouched;
//     only the flush overlaps.
//   - tuple-shard announcements up to ShardAhead pair/self steps ahead
//     of the cursor (only when PairAhead is set), so shard bytes stream
//     in alongside partition state.
//
// With every depth at 0 no stream runs: each op is applied in tape
// order on the cursor, a load as Fetch then Commit and an unload as
// Evict then Flush — the paper's serial Table 1 execution.
//
// Every flush completes — and every fetch is consumed or discarded —
// before the function returns, on success and on error alike.
func runTape(tape []op, cb Callbacks, opts ExecOptions) (Result, error) {
	shardAhead := opts.ShardAhead
	if cb.PairAhead == nil {
		shardAhead = 0
	}
	// hazard[i], for a load op at index i, is the index of the latest
	// unload of the same partition before i (-1 if none).
	hazard := make([]int, len(tape))
	lastUnload := make(map[uint32]int)
	for i, o := range tape {
		switch o.kind {
		case opUnload:
			lastUnload[o.a] = i
		case opLoad:
			h, ok := lastUnload[o.a]
			if !ok {
				h = -1
			}
			hazard[i] = h
		}
	}

	futures := make(map[int]*future) // keyed by load op tape index
	outstanding := 0
	scan := 0 // next tape index to consider for prefetch

	writes := make(map[int]*writeback) // keyed by unload op tape index
	writeQueue := make([]int, 0, opts.WritebackDepth)

	shardAnnounced := make(map[int]bool) // pair/self tape indexes announced
	shardsAhead := 0
	shardScan := 0 // next tape index to consider for announcement

	// drainAll waits out every issued-but-unconsumed fetch (handing
	// successfully fetched values back through Discard) and every
	// in-flight flush, so no goroutine outlives the call. It returns
	// the first flush error not yet surfaced — on the success path the
	// caller must fail the run with it, since the store now holds stale
	// bytes for that partition.
	drainAll := func() error {
		for _, f := range futures {
			<-f.done
			if f.err == nil && cb.Discard != nil {
				cb.Discard(f.p, f.data)
			}
		}
		var firstErr error
		for _, wb := range writes {
			<-wb.done
			if wb.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("pigraph: write-back %d: %w", wb.p, wb.err)
			}
		}
		return firstErr
	}

	var r Result
	for cursor, o := range tape {
		// Announce upcoming tuple shards, keeping at most ShardAhead
		// pair/self steps announced-but-unprocessed. The scan may have
		// stalled exactly at the cursor (window saturated by the
		// preceding steps); announcing at the cursor's own position is
		// still "before Pair/Self runs", so every step is announced
		// exactly once.
		for shardsAhead < shardAhead && shardScan < len(tape) {
			if shardScan < cursor {
				shardScan = cursor
				continue
			}
			switch tape[shardScan].kind {
			case opPair:
				cb.PairAhead(tape[shardScan].a, tape[shardScan].b)
				shardAnnounced[shardScan] = true
				shardsAhead++
			case opSelf:
				cb.PairAhead(tape[shardScan].a, tape[shardScan].a)
				shardAnnounced[shardScan] = true
				shardsAhead++
			}
			shardScan++
		}

		// Top up the prefetch window: issue fetches for upcoming loads,
		// stopping at the first load whose write-back hazard has not yet
		// reached the cursor (ops before cursor have executed; cursor's
		// own op has not). An executed-but-still-flushing write-back is
		// no obstacle — the fetch goroutine waits for the flush itself.
		for outstanding < opts.PrefetchDepth && scan < len(tape) {
			if tape[scan].kind != opLoad {
				scan++
				continue
			}
			if scan < cursor {
				scan++ // already executed synchronously
				continue
			}
			if h := hazard[scan]; h >= cursor {
				break // the eviction itself is still ahead of the cursor
			}
			if scan == cursor {
				// Fetching the op the cursor is about to execute gains
				// nothing; let the synchronous path handle it.
				scan++
				continue
			}
			f := &future{p: tape[scan].a, done: make(chan struct{})}
			var wb *writeback
			if h := hazard[scan]; h >= 0 {
				wb = writes[h]
			}
			futures[scan] = f
			outstanding++
			go func() {
				defer close(f.done)
				if wb != nil {
					<-wb.done
					if wb.err != nil {
						f.err = fmt.Errorf("awaiting write-back: %w", wb.err)
						return
					}
				}
				if cb.Fetch != nil {
					f.data, f.err = cb.Fetch(f.p)
				}
			}()
			scan++
		}

		switch {
		case o.kind == opUnload && opts.WritebackDepth > 0:
			// Bounded background writer: admit the new write only after
			// the oldest in-flight one lands.
			for len(writeQueue) >= opts.WritebackDepth {
				oldest := writes[writeQueue[0]]
				writeQueue = writeQueue[1:]
				<-oldest.done
				if oldest.err != nil {
					_ = drainAll()
					return r, fmt.Errorf("pigraph: write-back %d: %w", oldest.p, oldest.err)
				}
			}
			r.count(opUnload)
			r.AsyncUnloads++
			data, err := evict(o.a, cb)
			if err != nil {
				_ = drainAll()
				return r, err
			}
			wb := &writeback{p: o.a, done: make(chan struct{})}
			writes[cursor] = wb
			writeQueue = append(writeQueue, cursor)
			go func() {
				defer close(wb.done)
				if cb.Flush != nil {
					wb.err = cb.Flush(wb.p, data)
				}
			}()

		case o.kind == opLoad:
			f := futures[cursor]
			if f != nil {
				<-f.done
				delete(futures, cursor)
				outstanding--
			} else if h := hazard[cursor]; h >= 0 {
				// Synchronous load with a possibly-pending write-back of
				// the same partition: wait for the flush before reading.
				if wb := writes[h]; wb != nil {
					<-wb.done
					if wb.err != nil {
						_ = drainAll()
						return r, fmt.Errorf("pigraph: load %d awaiting write-back: %w", o.a, wb.err)
					}
				}
			}
			if err := applyOp(&r, o, cb, f); err != nil {
				_ = drainAll()
				return r, err
			}

		default:
			if shardAnnounced[cursor] {
				delete(shardAnnounced, cursor)
				shardsAhead--
			}
			if err := applyOp(&r, o, cb, nil); err != nil {
				_ = drainAll()
				return r, err
			}
		}
	}
	if err := drainAll(); err != nil {
		return r, err
	}
	return r, nil
}

// evict runs the cursor half of an unload.
func evict(p uint32, cb Callbacks) (any, error) {
	if cb.Evict == nil {
		return nil, nil
	}
	data, err := cb.Evict(p)
	if err != nil {
		return nil, fmt.Errorf("pigraph: evict %d: %w", p, err)
	}
	return data, nil
}

// applyOp executes one tape entry on the cursor, counting it in r. For
// opLoad, a non-nil future supplies the prefetched data; otherwise the
// fetch runs here, directly before its commit. An opUnload reaching
// applyOp is synchronous: its flush runs directly after its evict.
func applyOp(r *Result, o op, cb Callbacks, f *future) error {
	r.count(o.kind)
	switch o.kind {
	case opLoad:
		var data any
		if f != nil {
			if f.err != nil {
				return fmt.Errorf("pigraph: prefetch %d: %w", o.a, f.err)
			}
			r.PrefetchedLoads++
			data = f.data
		} else if cb.Fetch != nil {
			var err error
			if data, err = cb.Fetch(o.a); err != nil {
				return fmt.Errorf("pigraph: fetch %d: %w", o.a, err)
			}
		}
		if cb.Commit != nil {
			if err := cb.Commit(o.a, data); err != nil {
				// The value was fetched but never became resident: hand
				// it back so staged resources (memory budget charges)
				// are released before the error aborts the run.
				if cb.Discard != nil {
					cb.Discard(o.a, data)
				}
				return fmt.Errorf("pigraph: commit %d: %w", o.a, err)
			}
		}
	case opUnload:
		data, err := evict(o.a, cb)
		if err != nil {
			return err
		}
		if cb.Flush != nil {
			if err := cb.Flush(o.a, data); err != nil {
				return fmt.Errorf("pigraph: flush %d: %w", o.a, err)
			}
		}
	case opPair:
		if cb.Pair != nil {
			if err := cb.Pair(o.a, o.b); err != nil {
				return fmt.Errorf("pigraph: pair {%d,%d}: %w", o.a, o.b, err)
			}
		}
	case opSelf:
		if cb.Self != nil {
			if err := cb.Self(o.a); err != nil {
				return fmt.Errorf("pigraph: self shard of %d: %w", o.a, err)
			}
		}
	}
	return nil
}

// Simulate counts load/unload operations under the two-slot model
// without side effects — the Table 1 measurement.
func (s *Schedule) Simulate() Result {
	// Default options cannot fail.
	r, err := s.SimulateOpts(ExecOptions{})
	if err != nil {
		panic("pigraph: two-slot simulation cannot fail: " + err.Error())
	}
	return r
}

// SimulateOpts counts the operations of an (S-slot, W-worker)
// execution without side effects: it plans each Split segment's tape
// and counts its op kinds. The pipelining depths are irrelevant here:
// the tapes, and hence the counts, depend only on Slots and Workers
// (each worker plans its own segment from an empty slot state, so
// totals are the exact sum of the per-worker tapes). The only possible
// error is invalid options.
func (s *Schedule) SimulateOpts(opts ExecOptions) (Result, error) {
	opts, err := ExecOptions{Slots: opts.Slots, Workers: opts.Workers}.withDefaults()
	if err != nil {
		return Result{}, err
	}
	var r Result
	for _, seg := range s.Split(opts.Workers) {
		tape, err := seg.plan(opts.Slots)
		if err != nil {
			return Result{}, err
		}
		for _, o := range tape {
			r.count(o.kind)
		}
	}
	return r, nil
}

// Validate checks that the schedule covers the PI graph exactly: every
// undirected edge processed exactly once, every self-shard exactly
// once, and no phantom work.
func (s *Schedule) Validate(g *PIGraph) error {
	if s.NumPartitions != g.NumPartitions() {
		return fmt.Errorf("pigraph: schedule over %d partitions, graph has %d", s.NumPartitions, g.NumPartitions())
	}
	type pair struct{ a, b uint32 }
	norm := func(a, b uint32) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	seenPair := make(map[pair]bool)
	seenSelf := make(map[uint32]bool)
	for _, v := range s.Visits {
		if v.Self {
			if g.SelfWeight(v.Primary) == 0 {
				return fmt.Errorf("pigraph: phantom self visit at %d", v.Primary)
			}
			if seenSelf[v.Primary] {
				return fmt.Errorf("pigraph: self-shard of %d processed twice", v.Primary)
			}
			seenSelf[v.Primary] = true
		}
		for _, peer := range v.Peers {
			if peer == v.Primary {
				return fmt.Errorf("pigraph: visit of %d lists itself as peer", peer)
			}
			if g.Weight(v.Primary, peer) == 0 {
				return fmt.Errorf("pigraph: phantom edge {%d,%d}", v.Primary, peer)
			}
			p := norm(v.Primary, peer)
			if seenPair[p] {
				return fmt.Errorf("pigraph: edge {%d,%d} processed twice", p.a, p.b)
			}
			seenPair[p] = true
		}
	}
	if len(seenPair) != g.NumEdges() {
		return fmt.Errorf("pigraph: schedule covers %d of %d edges", len(seenPair), g.NumEdges())
	}
	for i := uint32(0); int(i) < g.NumPartitions(); i++ {
		if g.SelfWeight(i) > 0 && !seenSelf[i] {
			return fmt.Errorf("pigraph: self-shard of %d never processed", i)
		}
	}
	return nil
}

// Package core implements the paper's contribution: an out-of-core KNN
// engine for a memory-constrained PC that runs each iteration in five
// phases — (1) partition the KNN graph G(t), (2) populate the
// de-duplicating tuple hash table H, (3) build the partition interaction
// graph and plan its traversal, (4) score tuples with at most S
// partitions resident (two in the paper; optionally pipelined with
// asynchronous lookahead prefetch) and keep each user's top-K,
// yielding G(t+1), and (5) lazily apply queued profile updates to
// obtain P(t+1).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"knnpc/internal/delta"
	"knnpc/internal/disk"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/netstore"
	"knnpc/internal/partition"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
	"knnpc/internal/tuples"
)

// Options configures an Engine. Zero fields select the documented
// defaults.
type Options struct {
	// K is the number of nearest neighbors per user (required, ≥ 1).
	K int
	// NumPartitions is m, the partition count (default 8; must be
	// ≥ 2 so the two-slot memory model is meaningful, except that
	// graphs smaller than m shrink it).
	NumPartitions int
	// Partitioner is the phase-1 strategy (default partition.Greedy).
	Partitioner partition.Partitioner
	// Heuristic is the phase-3 PI traversal order (default
	// pigraph.DegreeLowHigh, the paper's usually-best variant).
	Heuristic pigraph.Heuristic
	// Similarity is sim(s,d) (default profile.Cosine).
	Similarity profile.Similarity
	// Workers parallelizes similarity scoring within one pair batch
	// (default 1). It never changes results — scores land in a slice
	// indexed by tuple position.
	Workers int
	// ExecWorkers shards the phase-4 op tape itself: the schedule's
	// visit sequence is split into that many contiguous segments at
	// pair boundaries and each segment runs on its own executor
	// goroutine with its own Slots-slot LRU budget over the shared
	// state store (default 1, the single-cursor execution). Workers
	// that hold the same partition concurrently share one in-memory
	// instance through a per-partition ownership layer, and accumulator
	// folds serialize per partition, so the scored output is identical
	// to serial execution at every worker count. The Loads/Unloads
	// accounting generalizes deterministically: per-worker counts
	// depend only on (Slots, ExecWorkers) and sum to the totals the
	// phase-3 simulator predicts — asserted every iteration —
	// with ExecWorkers=1 reproducing the single-cursor counts bit for
	// bit. Each worker runs the full pipelined executor, so
	// PrefetchDepth/AsyncWriteback/ShardPrefetch apply per worker —
	// and so does the residency footprint: MemoryBudget must be sized
	// for the worst case of ExecWorkers × (Slots + in-flight staging)
	// partitions, because instance sharing across workers depends on
	// scheduling and cannot be counted on. A budget sized for the
	// single-cursor guidance can fail an ExecWorkers>1 iteration with
	// ErrBudgetExceeded on some runs and not others.
	ExecWorkers int
	// BuildWorkers parallelizes the build side, phases 1–2: partition
	// state construction runs one partition per pool slot, and the
	// three phase-2 tuple streams (bridge generators, direct edges,
	// random exploration) produce concurrently into the hash table H
	// through batched adds (default 1, the serial build). The build
	// output is bit-identical at every worker count: H de-duplicates
	// and counts per shard, so everything downstream — ShardCounts,
	// the PI graph, the schedule, and therefore the Table 1
	// Loads/Unloads accounting — depends only on the tuple multiset,
	// which the producer decomposition preserves exactly. Unlike
	// ExecWorkers, BuildWorkers needs no extra MemoryBudget headroom:
	// partition states are built, persisted and released one at a
	// time per slot, never held resident.
	BuildWorkers int
	// Slots is the phase-4 memory budget S: at most S partitions
	// resident at once (default 2, the paper's model; must be ≥ 2).
	// The phase-3 simulator predicts, and the engine asserts, the
	// Loads/Unloads counts for whatever S is chosen, so Table 1
	// reproduction always runs with the default.
	Slots int
	// PrefetchDepth enables pipelined phase-4 execution: up to this
	// many upcoming partition loads are fetched on background
	// goroutines while the current pair is being scored. 0 (default)
	// is the paper's fully serial execution. Prefetching never changes
	// the Loads/Unloads accounting — only wall time — but each
	// in-flight fetch transiently holds one partition's state beyond
	// the S slots. That staging memory is charged to MemoryBudget the
	// moment it is fetched, so a budget sized for exactly S partitions
	// has no prefetch headroom and the iteration fails with
	// ErrBudgetExceeded rather than silently exceeding the bound.
	PrefetchDepth int
	// AsyncWriteback completes the phase-4 pipeline on the unload side:
	// an evicted partition's state is written back by a bounded
	// background writer instead of blocking the scoring cursor. The
	// cursor still evicts at the unload's tape position, so the
	// Loads/Unloads accounting is identical; a reload of the same
	// partition waits for the pending write (the symmetric hazard), and
	// every write lands before the iteration returns. The evicted
	// state's memory stays charged to MemoryBudget until its write
	// completes, exactly like a prefetched load is charged from fetch
	// time. The in-flight bound is max(1, PrefetchDepth), symmetric to
	// the load side.
	AsyncWriteback bool
	// ShardPrefetch streams the third phase-4 I/O stream alongside
	// partition state: up to this many upcoming pair/self steps have
	// their tuple-shard spill bytes read (and de-duplicated) on
	// background goroutines before the cursor needs them. 0 (default)
	// reads every shard synchronously inside the pair step. Only
	// effective with OnDisk (the in-memory table has no shard I/O to
	// hide).
	ShardPrefetch int
	// NetStoreShards, when positive, moves partition state behind an
	// in-process loopback cluster of that many network state-store
	// shards (internal/netstore): each shard owns a contiguous
	// partition range and — under EmulateDisk — its own emulated
	// spindle, so phase-4 state I/O queues per shard instead of on the
	// one shared device that caps multi-worker execution. The phase-4
	// ownership layer switches from in-process guards to store-side
	// leases with fencing tokens, and each tape worker scores into a
	// private accumulator partial that merges commutatively at collect
	// time — workers never share memory, so results are bit-identical
	// to the in-process engine at every (Slots, ExecWorkers, shards)
	// combination and the same code path runs across real processes.
	// Budget note: without instance sharing, MemoryBudget must cover
	// the full ExecWorkers × (Slots + in-flight staging) partitions.
	// Mutually exclusive with NetStoreAddrs. Requires NetStoreShards ≤
	// NumPartitions (every shard owns at least one partition).
	NetStoreShards int
	// NetStoreAddrs connects to an externally managed state-store
	// cluster instead (cmd/statestore): addrs[i] must be shard i of
	// len(addrs) over NumPartitions partitions, the same contiguous
	// routing the servers validate. Everything said for NetStoreShards
	// applies, except device emulation for state I/O is the servers'
	// configuration, not this engine's.
	NetStoreAddrs []string
	// PublishViews turns on the serving tier's data feed: at the end of
	// every iteration the engine publishes each partition's committed
	// serve view — every member's final top-K list and post-update
	// profile — to its state-store shard, stamped with the epoch the
	// iteration's phase-1 base PUT opened. Point lookups (NEIGHBORS,
	// PROFILE) and read replicas answer from these views. Off by
	// default because the publish pass reads every profile and writes
	// every view once per iteration — compute-only runs shouldn't pay
	// that. Requires a network store (NetStoreShards or NetStoreAddrs).
	PublishViews bool
	// NetStoreReplicas additionally starts one loopback read replica
	// per shard of the NetStoreShards cluster, shadowing its primary.
	// Replicas answer point lookups from an epoch-invalidated cache of
	// the serve views on their own emulated spindles (named
	// "replica0", ... under EmulateDisk), so lookup traffic stops
	// queueing on the primaries' devices during phase 4. Requires
	// NetStoreShards and PublishViews; with an external cluster
	// (NetStoreAddrs), run `cmd/statestore -replicaof` instead.
	NetStoreReplicas bool
	// StoreRetries bounds how many times one Iterate re-runs phase 4
	// after a transient store failure (shard restart, dropped
	// connection, injected fault) before giving up. Each retry issues
	// RESET to every shard — dropping all partials and leases, keeping
	// bases — and re-executes the tape from phase 1's installed bases,
	// so a healed attempt produces exactly the graph a fault-free run
	// would. Meaningful only with a network store; 0 defaults to 3.
	StoreRetries int
	// StoreRetryBackoff is the pause before each phase-4 re-run
	// (doubled per retry, jitter-free — determinism of the result does
	// not depend on timing). 0 defaults to 250ms.
	StoreRetryBackoff time.Duration
	// OnDisk selects real file-backed partition state and tuple
	// spills under ScratchDir; false keeps serialized state in memory
	// (same code paths, no file traffic). With a network store
	// configured, partition state lives behind the store instead and
	// OnDisk governs only the tuple spills and profile file.
	OnDisk bool
	// ProfilesOnDisk additionally keeps the canonical profile
	// collection P(t) in a disk file (profile.FileStore): phase 1
	// reads member profiles with positioned reads and phase 5 applies
	// updates by streaming rewrite. This is the paper's setting —
	// profile data is never fully resident.
	ProfilesOnDisk bool
	// ScratchDir hosts the on-disk state ("" = private temp dir).
	ScratchDir string
	// EmulateDisk, when non-nil with OnDisk set, enforces the model's
	// device latency on every partition state load and unload (a
	// modeled seek plus transfer time is slept on top of the host's
	// real file I/O). This reproduces the paper's latency-bound phase 4
	// on hosts whose page cache would otherwise hide the cost the
	// Loads/Unloads metric models, making serial-vs-pipelined
	// comparisons meaningful anywhere. I/O counters are unaffected.
	EmulateDisk *disk.Model
	// MemoryBudget, when positive, bounds the bytes of resident
	// partition state; loading beyond it fails with
	// disk.ErrBudgetExceeded.
	MemoryBudget int64
	// TupleBatch tunes the disk hash table's spill batch (default
	// 1024 tuples).
	TupleBatch int
	// RandomCandidates, when positive, injects that many uniformly
	// random extra candidates per user into H each iteration. The
	// paper's candidate rule is purely structural (neighbors and
	// neighbors' neighbors), which cannot escape a converged
	// neighborhood after a large profile change; random exploration —
	// the standard remedy in the gossip-based KNN literature — fixes
	// that at O(n·R) extra similarity evaluations per iteration.
	// Zero (the default) reproduces the paper exactly. Each user's
	// draws come from a generator seeded by Seed ^ hash(iteration,
	// user), so the stream is a per-user pure function — shardable
	// across BuildWorkers with identical output at every count —
	// rather than one serial RNG whose draw order an execution would
	// have to preserve.
	RandomCandidates int
	// Seed drives the random initial graph G(0) and the
	// RandomCandidates sampling.
	Seed int64
	// StalenessThreshold enables delta scheduling in Run: a pass first
	// applies queued user adds/deletes through the cheap delta path,
	// then runs a full five-phase iteration only if some partition's
	// normalized drift — (adds + deletes + touched-edges/K) / members
	// since its last full iteration — has reached this threshold.
	// 0 (the default) disables the scheduler: every pass iterates,
	// exactly the pre-delta behavior. Must not be negative.
	StalenessThreshold float64
}

func (o *Options) applyDefaults() {
	if o.NumPartitions == 0 {
		o.NumPartitions = 8
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.Greedy{}
	}
	if o.Heuristic == nil {
		o.Heuristic = pigraph.DegreeLowHigh()
	}
	if o.Similarity == nil {
		o.Similarity = profile.Cosine{}
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.ExecWorkers == 0 {
		o.ExecWorkers = 1
	}
	if o.BuildWorkers == 0 {
		o.BuildWorkers = 1
	}
	if o.Slots == 0 {
		o.Slots = 2
	}
	if o.StoreRetries == 0 {
		o.StoreRetries = 3
	}
	if o.StoreRetryBackoff == 0 {
		o.StoreRetryBackoff = 250 * time.Millisecond
	}
}

// Engine drives KNN iterations over a fixed user set. Create one with
// New, run iterations with Iterate or Run, and Close it to release the
// scratch directory.
//
// An Engine is not safe for concurrent method calls, with two
// exceptions: EnqueueUpdate, EnqueueAddUser and EnqueueDelUser may be
// called from any goroutine at any time (the mutation log is the
// paper's concurrent ingestion point),
// and the query methods — QueryNeighbors, QueryProfile, Epoch — may
// run concurrently with an in-flight Iterate and with each other.
// Queries read the last committed state: mid-iteration they answer
// from G(t)/P(t) until the iteration's commit point, then from
// G(t+1)/P(t+1).
type Engine struct {
	opts       Options
	profiles   canonicalProfiles // canonical P(t)
	g          *graph.KNN        // G(t)
	iostats    disk.IOStats
	budget     *disk.Budget
	scratch    *disk.Scratch
	device     *disk.Device         // emulated local spindle for file-backed state/shard I/O (nil = none)
	netCluster *netstore.Cluster    // loopback shard servers (NetStoreShards mode only)
	netClient  *netstore.Client     // sharded state-store client (nil = in-process store)
	replicas   *netstore.ReplicaSet // loopback read replicas (NetStoreReplicas mode only)
	iter       int
	closed     bool

	// serveMu is the query/commit boundary: Iterate takes the write
	// side only around the commit window (graph swap + phase-5 profile
	// rewrite), queries take the read side. Everything else an
	// iteration does runs outside it, so lookups stay answerable
	// through phase 4.
	serveMu sync.RWMutex
	epoch   uint64 // committed epochs (iterations + delta commits); guarded by serveMu

	// The mutation log (see drainLog in delta.go). log is the local
	// queue behind EnqueueUpdate/EnqueueAddUser/EnqueueDelUser; backlog
	// holds drained records a pass has not consumed — records a failed
	// pass or drain parked for retry and adds held ahead of their id —
	// in arrival order (store queues clear on drain, so this is their
	// only home).
	log     *delta.Queue
	backlog []delta.Mutation

	// Delta-path state (see delta.go). dead is the committed tombstone
	// set (written only inside commit windows, read under serveMu's
	// read side by queries and unsynchronized by the single-threaded
	// iteration path); tracker the per-partition drift counters;
	// lastAssign/lastParts the partitioning of the last full iteration,
	// which delta inserts restrict their candidate pools to;
	// deltaAssign/deltaMembers the partition slots of users added
	// since.
	dead         map[uint32]struct{}
	tracker      *delta.Tracker
	lastAssign   *partition.Assignment
	lastParts    []*partition.Data
	deltaAssign  map[uint32]int
	deltaMembers map[int][]uint32
}

// New creates an engine over the given profiles. G(0) is a random
// K-regular graph seeded by opts.Seed (replaceable via SetGraph).
//
// The canonical profile store and the KNN graph structure stay in
// memory (K·n edge ids); the per-partition working set of phase 4 —
// profiles and accumulators, the memory hogs the paper worries about —
// is loaded at most two partitions at a time through the state store.
func New(store *profile.Store, opts Options) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("core: profile store is required")
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	opts.applyDefaults()
	n := store.NumUsers()
	if n < 2 {
		return nil, fmt.Errorf("core: need at least 2 users, have %d", n)
	}
	if opts.NumPartitions < 2 {
		return nil, fmt.Errorf("core: need at least 2 partitions, got %d", opts.NumPartitions)
	}
	if opts.Slots < 2 {
		return nil, fmt.Errorf("core: need at least 2 memory slots, got %d", opts.Slots)
	}
	if opts.PrefetchDepth < 0 {
		return nil, fmt.Errorf("core: negative prefetch depth %d", opts.PrefetchDepth)
	}
	if opts.ExecWorkers < 0 {
		return nil, fmt.Errorf("core: negative phase-4 worker count %d", opts.ExecWorkers)
	}
	if opts.BuildWorkers < 0 {
		return nil, fmt.Errorf("core: negative build worker count %d", opts.BuildWorkers)
	}
	if opts.ShardPrefetch < 0 {
		return nil, fmt.Errorf("core: negative shard prefetch %d", opts.ShardPrefetch)
	}
	if opts.StalenessThreshold < 0 {
		return nil, fmt.Errorf("core: negative staleness threshold %g", opts.StalenessThreshold)
	}
	if opts.NetStoreShards < 0 {
		return nil, fmt.Errorf("core: negative state-store shard count %d", opts.NetStoreShards)
	}
	if opts.NetStoreShards > 0 && len(opts.NetStoreAddrs) > 0 {
		return nil, fmt.Errorf("core: NetStoreShards and NetStoreAddrs are mutually exclusive (loopback cluster vs external servers)")
	}
	netstoreMode := opts.NetStoreShards > 0 || len(opts.NetStoreAddrs) > 0
	if opts.EmulateDisk != nil && !opts.OnDisk && !netstoreMode {
		return nil, fmt.Errorf("core: EmulateDisk requires OnDisk (the in-memory state store has no device to emulate)")
	}
	if opts.PublishViews && !netstoreMode {
		return nil, fmt.Errorf("core: PublishViews requires a network store (NetStoreShards or NetStoreAddrs) to publish to")
	}
	if opts.NetStoreReplicas && opts.NetStoreShards == 0 {
		return nil, fmt.Errorf("core: NetStoreReplicas requires the loopback cluster (NetStoreShards); replicate external shards with `statestore -replicaof`")
	}
	if opts.NetStoreReplicas && !opts.PublishViews {
		return nil, fmt.Errorf("core: NetStoreReplicas without PublishViews would serve nothing (replicas answer from published serve views)")
	}
	if opts.NumPartitions > n {
		opts.NumPartitions = n
	}
	if opts.NetStoreShards > opts.NumPartitions {
		return nil, fmt.Errorf("core: %d state-store shards over %d partitions would leave a shard empty",
			opts.NetStoreShards, opts.NumPartitions)
	}
	if len(opts.NetStoreAddrs) > opts.NumPartitions {
		return nil, fmt.Errorf("core: %d state-store addresses over %d partitions would leave a shard empty",
			len(opts.NetStoreAddrs), opts.NumPartitions)
	}
	g, err := graph.RandomKNN(n, opts.K, rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:         opts,
		profiles:     memCanonical{store: store},
		g:            g,
		budget:       disk.NewBudget(opts.MemoryBudget),
		log:          delta.NewQueue(),
		tracker:      delta.NewTracker(opts.K),
		deltaAssign:  make(map[uint32]int),
		deltaMembers: make(map[int][]uint32),
	}
	// fail releases everything a partially built engine acquired.
	fail := func(err error) (*Engine, error) {
		if e.replicas != nil {
			e.replicas.Close()
		}
		if e.netClient != nil {
			e.netClient.Close()
		}
		if e.netCluster != nil {
			e.netCluster.Close()
		}
		if e.scratch != nil {
			e.scratch.Close()
		}
		return nil, err
	}
	if opts.EmulateDisk != nil && opts.OnDisk {
		e.device = disk.NewNamedDevice(*opts.EmulateDisk, "spindle")
		e.iostats.RegisterDevice(e.device)
	}
	switch {
	case opts.NetStoreShards > 0:
		cluster, err := netstore.StartCluster(opts.NetStoreShards, opts.NumPartitions, opts.EmulateDisk)
		if err != nil {
			return fail(err)
		}
		e.netCluster = cluster
		for _, dev := range cluster.Devices() {
			e.iostats.RegisterDevice(dev)
		}
		client, err := netstore.Dial(cluster.Addrs(), opts.NumPartitions)
		if err != nil {
			return fail(err)
		}
		e.netClient = client
		if opts.NetStoreReplicas {
			replicas, err := netstore.StartReplicas(cluster.Addrs(), opts.NumPartitions, opts.EmulateDisk)
			if err != nil {
				return fail(err)
			}
			e.replicas = replicas
			for _, rep := range replicas.Replicas() {
				e.iostats.RegisterDevice(rep.Device())
			}
		}
	case len(opts.NetStoreAddrs) > 0:
		client, err := netstore.Dial(opts.NetStoreAddrs, opts.NumPartitions)
		if err != nil {
			return fail(err)
		}
		e.netClient = client
	}
	if opts.OnDisk || opts.ProfilesOnDisk {
		scratch, err := disk.NewScratch(opts.ScratchDir)
		if err != nil {
			return fail(err)
		}
		e.scratch = scratch
	}
	if opts.ProfilesOnDisk {
		fs, err := profile.CreateFileStore(e.scratch.Path("profiles.bin"), &e.iostats, store.Vectors())
		if err != nil {
			return fail(fmt.Errorf("core: create disk profile store: %w", err))
		}
		e.profiles = fs
	}
	return e, nil
}

// SetGraph replaces G(t) (e.g. with a warm start). The graph must match
// the engine's user count and K bound.
func (e *Engine) SetGraph(g *graph.KNN) error {
	if g.NumNodes() != e.profiles.NumUsers() {
		return fmt.Errorf("core: graph has %d nodes, engine has %d users", g.NumNodes(), e.profiles.NumUsers())
	}
	if g.K() > e.opts.K {
		return fmt.Errorf("core: graph K=%d exceeds engine K=%d", g.K(), e.opts.K)
	}
	e.g = g.Clone()
	return nil
}

// Graph returns a copy of the current KNN graph G(t).
func (e *Engine) Graph() *graph.KNN { return e.g.Clone() }

// Profile returns user u's current profile (from P(t); queued updates
// are not yet visible, per the paper's lazy-update contract).
func (e *Engine) Profile(u uint32) (profile.Vector, error) { return e.profiles.Profile(u) }

// EnqueueUpdate defers a profile change to the end of the current
// iteration (phase 5). Safe for concurrent use.
func (e *Engine) EnqueueUpdate(u profile.Update) {
	e.log.Enqueue(delta.Mutation{Op: delta.Update, User: u.User, Update: u})
}

// IOStats returns a snapshot of the engine's cumulative I/O counters.
func (e *Engine) IOStats() disk.Snapshot { return e.iostats.Snapshot() }

// Close releases the canonical profile store, the scratch directory,
// and — in network-store mode — the store client and any loopback
// shard servers. The engine must not be used afterwards.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.profiles.Close()
	if e.scratch != nil {
		if serr := e.scratch.Close(); err == nil {
			err = serr
		}
	}
	if e.replicas != nil {
		if cerr := e.replicas.Close(); err == nil {
			err = cerr
		}
	}
	if e.netClient != nil {
		if cerr := e.netClient.Close(); err == nil {
			err = cerr
		}
	}
	if e.netCluster != nil {
		if cerr := e.netCluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Run executes up to maxIters passes. Each pass first applies queued
// user adds/deletes through the delta path (ApplyDeltas), then — if
// the staleness scheduler calls for one (NeedsIteration; always, with
// StalenessThreshold 0) — a full five-phase iteration. Run stops early
// when scheduling skips the iteration (nothing new arrives mid-Run
// after the first skip), when an iteration changes no edges
// (convergence), or when the context is canceled.
func (e *Engine) Run(ctx context.Context, maxIters int) ([]*IterationStats, error) {
	var all []*IterationStats
	for i := 0; i < maxIters; i++ {
		if _, err := e.ApplyDeltas(); err != nil {
			return all, err
		}
		if !e.NeedsIteration() {
			break
		}
		st, err := e.Iterate(ctx)
		if err != nil {
			return all, err
		}
		all = append(all, st)
		if st.EdgeChanges == 0 {
			break
		}
	}
	return all, nil
}

// Iterate runs one full five-phase KNN iteration, transforming G(t)
// into G(t+1) and P(t) into P(t+1).
func (e *Engine) Iterate(ctx context.Context) (*IterationStats, error) {
	if e.closed {
		return nil, fmt.Errorf("core: engine is closed")
	}
	stats := &IterationStats{Iteration: e.iter, NumPartitions: e.opts.NumPartitions}
	ioStart := e.iostats.Snapshot()

	// Phase 1: partition G(t), then build every partition's state —
	// member profile snapshots plus empty accumulators — on the
	// BuildWorkers pool (per-partition work is independent).
	start := time.Now()
	dg := e.g.Digraph()
	assign, err := e.opts.Partitioner.Partition(dg, e.opts.NumPartitions)
	if err != nil {
		return nil, fmt.Errorf("core: phase 1 (partition): %w", err)
	}
	parts := partition.Build(dg, assign)
	stats.PartitionObjective = partition.Objective(dg, assign)
	stats.BuildWorkers = e.buildWorkerCount()
	states := e.newStateStore()
	defer states.Cleanup()
	if err := e.buildStates(ctx, parts, states); err != nil {
		return nil, fmt.Errorf("core: phase 1 (state init): %w", err)
	}
	stats.Phases.Partition = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: canceled after phase 1: %w", err)
	}

	// Phases 2–4 run as one heal-and-retry unit. A transient store
	// failure (shard crash/restart, dropped connection, injected
	// fault) or a stale lease — the signature of a restart that wiped
	// the lease table — does not invalidate phase 1's installed bases,
	// but it does invalidate the tuple table: phase-4 scoring consumes
	// each tuple shard exactly once (DiskTable.Shard drains and
	// deletes the spill file), so a partially executed tape cannot be
	// replayed over the same table — re-running it would score only
	// the shards the failed attempt had not yet consumed. The retry
	// therefore rebuilds from phase 2: the tuple multiset is a pure
	// function of (G(t), assign, seed, iteration), so the rebuilt
	// shards, PI graph, and op tape are identical; RESET drops every
	// shard's partials (including any a zombie worker landed after the
	// abort) and the accumulators rebuild from the same empty
	// baseline, so a healed attempt's graph is byte-identical to a
	// fault-free run's.
	var table tuples.Table
	defer func() {
		if table != nil {
			table.Close()
		}
	}()
	var shared *phase4Shared
	var result pigraph.Result
	var perWorker []pigraph.Result
	var prefetcher tuples.ShardPrefetcher
	for attempt := 0; ; attempt++ {
		// Phase 2: populate the hash table H — bridge tuples, the
		// direct edges of G(t), and the exploration stream — from
		// concurrent producers on the same pool, emitting in batches.
		start = time.Now()
		var err error
		table, err = e.newTable(assign)
		if err != nil {
			return nil, fmt.Errorf("core: phase 2 (hash table): %w", err)
		}
		// Tombstoned users neither emit nor receive candidates: the
		// filter drops their tuples at the table door. Installed only
		// when there are tombstones, so deletion-free runs keep the
		// exact pre-filter add path.
		if len(e.dead) > 0 {
			if tf, ok := table.(tuples.TombstoneFilter); ok {
				dead := e.dead
				tf.SetTombstones(func(u uint32) bool { _, ok := dead[u]; return ok })
			}
		}
		if err := e.populateTable(ctx, dg, parts, table); err != nil {
			return nil, fmt.Errorf("core: phase 2 (populate H): %w", err)
		}
		stats.TuplesAdded = table.Added()
		stats.Phases.Tuples += time.Since(start)

		// Phase 3: PI graph and traversal plan.
		start = time.Now()
		pi, err := pigraph.FromTupleCounts(e.opts.NumPartitions, table.ShardCounts())
		if err != nil {
			return nil, fmt.Errorf("core: phase 3 (PI graph): %w", err)
		}
		stats.PIEdges = pi.NumEdges()
		schedule := e.opts.Heuristic.Plan(pi)
		execOpts := pigraph.ExecOptions{
			Slots:         e.opts.Slots,
			PrefetchDepth: e.opts.PrefetchDepth,
			ShardAhead:    e.opts.ShardPrefetch,
			Workers:       e.opts.ExecWorkers,
		}
		if e.opts.AsyncWriteback {
			// The in-flight write bound mirrors the load lookahead, so
			// the two pipeline directions stay symmetric.
			execOpts.WritebackDepth = max(1, e.opts.PrefetchDepth)
		}
		predicted, err := schedule.SimulateOpts(execOpts)
		if err != nil {
			return nil, fmt.Errorf("core: phase 3 (simulate): %w", err)
		}
		stats.PredictedLoads, stats.PredictedUnloads = predicted.Loads, predicted.Unloads
		stats.Phases.PIGraph += time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: canceled after phase 3: %w", err)
		}

		// Phase 4: execute the schedule under the S-slot memory model —
		// sharded across ExecWorkers tape segments — scoring shards and
		// folding results into the owning partitions' accumulators
		// through the per-partition ownership layer. Each worker's
		// executor overlaps up to three I/O streams with its scoring
		// cursor: PrefetchDepth upcoming partition fetches,
		// AsyncWriteback's bounded background write-backs, and
		// ShardPrefetch tuple-shard reads.
		start = time.Now()
		prefetcher, _ = table.(tuples.ShardPrefetcher)
		runCtx, cancelRun := context.WithCancel(ctx)
		shared = &phase4Shared{
			engine: e,
			assign: assign,
			owner:  e.newOwner(states),
			table:  table,
			ctx:    runCtx,
			cancel: cancelRun,
		}
		shared.shards = prefetcher
		result, perWorker, err = schedule.ExecuteParallel(shared.workerCallbacks, execOpts)
		cancelRun()
		if err == nil {
			break
		}
		// Workers that aborted mid-tape still hold references to their
		// resident partitions; return that staged memory to the budget
		// (the next attempt rebuilds all state from the store).
		shared.owner.abort()
		// Prefer the first real callback error over the executor's view:
		// sibling workers cancelled by it report a secondary
		// "canceled" error that would otherwise mask the cause.
		if first := shared.firstErr(); first != nil {
			err = first
		}
		if e.netClient == nil || attempt >= e.opts.StoreRetries || !storeTransient(err) || ctx.Err() != nil {
			return nil, fmt.Errorf("core: phase 4 (KNN computation): %w", err)
		}
		// The partially consumed table cannot be re-run; drop it and
		// rebuild it from scratch after the barrier.
		table.Close()
		table = nil
		if rerr := e.netClient.Reset(); rerr != nil {
			return nil, fmt.Errorf("core: phase 4 reset after %v: %w", err, rerr)
		}
		wait := e.opts.StoreRetryBackoff << attempt
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("core: phase 4 (KNN computation): %w", err)
		case <-time.After(wait):
		}
	}
	stats.Loads, stats.Unloads = result.Loads, result.Unloads
	stats.PrefetchedLoads = result.PrefetchedLoads
	stats.AsyncUnloads = result.AsyncUnloads
	stats.ExecWorkers = len(perWorker)
	stats.WorkerOps = make([]int64, len(perWorker))
	for w, r := range perWorker {
		stats.WorkerOps[w] = r.Ops()
	}
	if prefetcher != nil {
		stats.PrefetchedShardBytes = prefetcher.PrefetchedShardBytes()
	}
	stats.TuplesScored = shared.scored.Load()
	// The totals are the field-wise sum of perWorker by construction,
	// so this one check covers the whole worker breakdown: predicted
	// comes from independently simulating each segment's tape.
	if stats.Loads != stats.PredictedLoads || stats.Unloads != stats.PredictedUnloads {
		return nil, fmt.Errorf("core: phase 4 measured %d/%d load/unload ops, simulator predicted %d/%d",
			stats.Loads, stats.Unloads, stats.PredictedLoads, stats.PredictedUnloads)
	}

	// Assemble G(t+1) from the persisted accumulators. A COLLECT stream
	// that dies mid-flight is not resumed (the client contract — see
	// Client.Collect), so a transient store failure restarts the
	// assembly from scratch with a fresh graph; partials are immutable
	// once phase 4 succeeds, so every attempt reads the same state.
	var next *graph.KNN
	for attempt := 0; ; attempt++ {
		var err error
		next, err = graph.NewKNN(e.profiles.NumUsers(), e.opts.K)
		if err != nil {
			return nil, err
		}
		err = states.Collect(func(st *partState) error {
			for _, u := range st.members {
				if err := next.Set(u, st.accs[u].IDs()); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			break
		}
		if e.netClient == nil || attempt >= e.opts.StoreRetries || !storeTransient(err) || ctx.Err() != nil {
			return nil, fmt.Errorf("core: phase 4 (collect): %w", err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("core: phase 4 (collect): %w", err)
		case <-time.After(e.opts.StoreRetryBackoff << attempt):
		}
	}
	stats.EdgeChanges = e.g.DiffEdges(next)
	stats.Phases.Score = time.Since(start)

	// Phase 5 takes the update records of the mutation log: the
	// backlog, then what knnserve (or any store client) pushed since,
	// then this process's own queue. A failed drain loses nothing —
	// records already drained wait on the backlog for the retry.
	start = time.Now()
	recs, _, err := e.drainLog(true)
	if err != nil {
		return nil, fmt.Errorf("core: phase 5: %w", err)
	}
	updates := make([]profile.Update, len(recs))
	for i, r := range recs {
		updates[i] = r.Update
	}

	// Commit window: swap in G(t+1) and apply phase 5, P(t) → P(t+1),
	// under the write side of the query boundary. Queries block only
	// for this window — the swap plus the profile rewrite — and then
	// observe the new epoch atomically: graph, profiles, and the epoch
	// counter move together.
	e.serveMu.Lock()
	e.g = next
	applied, err := e.profiles.Apply(updates)
	if err != nil {
		e.serveMu.Unlock()
		// Each update sets or removes one entry outright, so replaying
		// the whole batch over a partly applied one is correct.
		e.backlog = append(recs, e.backlog...)
		return nil, fmt.Errorf("core: phase 5 (profile updates): %w", err)
	}
	e.epoch++
	e.serveMu.Unlock()
	stats.UpdatesApplied = applied
	stats.Phases.Update = time.Since(start)

	// This iteration refreshed every partition from scratch: reset the
	// staleness clock and adopt its partitioning as the locality map
	// the next delta inserts restrict themselves to. Delta-added users
	// were partitioned for real by this phase 1, so their provisional
	// slots retire.
	e.lastAssign, e.lastParts = assign, parts
	live := make([]int, len(parts))
	for p, part := range parts {
		for _, u := range part.Members {
			if _, tomb := e.dead[u]; !tomb {
				live[p]++
			}
		}
	}
	e.tracker.ResetFull(live, e.epoch)
	e.deltaAssign = make(map[uint32]int)
	e.deltaMembers = make(map[int][]uint32)

	// Serve-view publish: push every partition's committed view — final
	// top-K lists and post-update profiles — to the store, where point
	// lookups and replicas answer from it. Runs outside the commit
	// window (it only reads committed state) but before Cleanup's
	// deferred CLEAR, which preserves views by contract.
	if e.opts.PublishViews && e.netClient != nil {
		if err := e.publishViews(parts); err != nil {
			return nil, fmt.Errorf("core: publish serve views: %w", err)
		}
	}
	// Staleness document: freshly reset counters, new last-full epoch.
	// Metadata-only PUT — never perturbs the I/O accounting.
	if e.netClient != nil {
		if err := e.publishStaleness(); err != nil {
			return nil, fmt.Errorf("core: publish staleness: %w", err)
		}
	}

	stats.IO = e.iostats.Snapshot().Sub(ioStart)
	e.iter++
	return stats, nil
}

// publishViews encodes one serve view per partition from the just-
// committed graph and profiles and PUTs it to the partition's shard.
// The shard stamps each view with the partition's current epoch (the
// one this iteration's phase-1 base PUT opened), which is what lets
// replicas equate "epoch moved" with "a newer view exists".
func (e *Engine) publishViews(parts []*partition.Data) error {
	for p, part := range parts {
		entries := make([]netstore.ViewEntry, 0, len(part.Members))
		for _, u := range part.Members {
			if _, tomb := e.dead[u]; tomb {
				continue // tombstoned users are not served
			}
			vec, err := e.profiles.Profile(u)
			if err != nil {
				return fmt.Errorf("partition %d user %d: %w", p, u, err)
			}
			entries = append(entries, netstore.ViewEntry{
				User:      u,
				Neighbors: e.g.Neighbors(u),
				Profile:   vec.AppendBinary(nil),
			})
		}
		if err := e.netClient.PutView(uint32(p), netstore.EncodeView(entries)); err != nil {
			return err
		}
	}
	return nil
}

// QueryNeighbors answers a point lookup for user u's committed top-K
// list, with the epoch it was committed at (0 before the first
// Iterate, when G is still the random seed graph). Safe to call
// concurrently with a running Iterate: mid-iteration reads return the
// last committed graph, never a partial result.
func (e *Engine) QueryNeighbors(u uint32) ([]uint32, uint64, error) {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	if int(u) >= e.g.NumNodes() {
		return nil, 0, fmt.Errorf("core: user %d out of range [0,%d)", u, e.g.NumNodes())
	}
	if _, tomb := e.dead[u]; tomb {
		return nil, 0, fmt.Errorf("core: user %d is tombstoned", u)
	}
	return append([]uint32(nil), e.g.Neighbors(u)...), e.epoch, nil
}

// QueryProfile answers a point lookup for user u's committed profile
// P(t), with the epoch it was committed at. Like QueryNeighbors it is
// safe during an Iterate; updates enqueued but not yet applied by a
// phase 5 are not visible, per the paper's lazy-update contract.
func (e *Engine) QueryProfile(u uint32) (profile.Vector, uint64, error) {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	if _, tomb := e.dead[u]; tomb {
		return profile.Vector{}, 0, fmt.Errorf("core: user %d is tombstoned", u)
	}
	vec, err := e.profiles.Profile(u)
	if err != nil {
		return profile.Vector{}, 0, err
	}
	return vec, e.epoch, nil
}

// Epoch reports the number of committed iterations — the stamp
// QueryNeighbors and QueryProfile results carry.
func (e *Engine) Epoch() uint64 {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	return e.epoch
}

// StoreAddrs reports the state-store shard addresses the engine uses
// (nil without a network store) — what an external knnserve dials for
// primary reads and update pushes.
func (e *Engine) StoreAddrs() []string {
	if e.netCluster != nil {
		return e.netCluster.Addrs()
	}
	return append([]string(nil), e.opts.NetStoreAddrs...)
}

// ReplicaAddrs reports the loopback read replicas' addresses (nil
// without NetStoreReplicas) — what knnserve dials for replica reads.
func (e *Engine) ReplicaAddrs() []string {
	if e.replicas == nil {
		return nil
	}
	return e.replicas.Addrs()
}

func (e *Engine) newStateStore() stateStore {
	if e.netClient != nil {
		return newNetStateStore(e.netClient, &e.iostats)
	}
	if e.opts.OnDisk {
		return newDiskStateStore(e.scratch, &e.iostats, e.device)
	}
	return newMemStateStore()
}

// newOwner picks the phase-4 ownership layer: store-side leases over
// the network KV, or the in-process refcounted guards.
func (e *Engine) newOwner(states stateStore) ownerLayer {
	if e.netClient != nil {
		return newNetOwner(e.netClient, e.budget, &e.iostats)
	}
	return newPartOwner(e.opts.NumPartitions, states, e.budget, &e.iostats)
}

func (e *Engine) newTable(assign *partition.Assignment) (tuples.Table, error) {
	if e.opts.OnDisk {
		t := tuples.NewDiskTable(assign, e.scratch, &e.iostats, e.opts.TupleBatch)
		t.SetDevice(e.device) // shard reads queue on the same emulated spindle
		return t, nil
	}
	return tuples.NewMemTable(assign), nil
}

// phase4Shared carries the state one schedule execution shares across
// its tape workers: the partition ownership layer (which serializes
// same-partition store I/O and accumulator folds), the tuple table,
// and the run's failure signal. The first callback error cancels the
// run's context so sibling workers abort promptly instead of grinding
// their remaining tape; user cancellation arrives through the same
// context.
type phase4Shared struct {
	engine *Engine
	assign *partition.Assignment
	owner  ownerLayer
	table  tuples.Table
	shards tuples.ShardPrefetcher // nil when the table has no async path
	scored atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	failMu sync.Mutex
	failed error
}

// fail records the run's first real error and cancels every sibling
// worker. It returns err unchanged so callers can `return s.fail(err)`.
func (s *phase4Shared) fail(err error) error {
	s.failMu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.failMu.Unlock()
	s.cancel()
	return err
}

// firstErr reports the first real callback error (nil if the failure
// came from elsewhere, e.g. option validation inside the executor).
func (s *phase4Shared) firstErr() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failed
}

// ctxErr surfaces run cancellation — by the user's context or by a
// sibling worker's failure — as a callback error.
func (s *phase4Shared) ctxErr() error {
	if err := s.ctx.Err(); err != nil {
		return s.fail(fmt.Errorf("canceled: %w", err))
	}
	return nil
}

// workerCallbacks builds the callback set of one tape worker — the
// factory ExecuteParallel calls once per worker before any of them
// start.
func (s *phase4Shared) workerCallbacks(index int) pigraph.Callbacks {
	w := &phase4Worker{
		shared:   s,
		index:    index,
		scorer:   knn.Scorer{Sim: s.engine.opts.Similarity, Workers: s.engine.opts.Workers},
		resident: make(map[uint32]*partState, s.engine.opts.Slots),
	}
	cb := pigraph.Callbacks{
		Load:    w.load,
		Unload:  w.unload,
		Pair:    w.pair,
		Self:    w.self,
		Fetch:   w.fetch,
		Commit:  w.commit,
		Discard: w.discard,
		Evict:   w.evict,
		Flush:   w.flush,
	}
	if s.shards != nil {
		cb.PairAhead = w.pairAhead
	}
	return cb
}

// phase4Worker is one tape worker's executor state. The resident map
// is confined to the worker's cursor (the scorer's goroutines only
// read it while the cursor blocks in Score); everything cross-worker —
// partition instances, accumulator folds, the scored tally — goes
// through phase4Shared.
type phase4Worker struct {
	shared   *phase4Shared
	index    int // tape worker index, the lease owner's tenancy key
	scorer   knn.Scorer
	resident map[uint32]*partState
}

// fetch materializes partition id without making it resident — the
// asynchronous half of a pipelined load. It may run concurrently with
// this worker's unloads of other partitions (never of id itself; the
// executor orders fetches after the matching write-back) and with
// anything other workers do — the ownership layer serializes
// same-partition store access across workers and shares the in-memory
// instance when another worker already holds id. The state's memory is
// charged to the budget at first acquire, so in-flight prefetches
// count against the bound; an abandoned prefetch is released through
// discard.
func (w *phase4Worker) fetch(id uint32) (any, error) {
	if err := w.shared.ctxErr(); err != nil {
		return nil, err
	}
	st, err := w.shared.owner.acquire(w.index, id)
	if err != nil {
		return nil, w.shared.fail(err)
	}
	return st, nil
}

// commit makes a fetched partition resident in this worker — the
// synchronous half, run on the worker's cursor (the ownership
// reference was already taken in fetch).
func (w *phase4Worker) commit(id uint32, data any) error {
	st, ok := data.(*partState)
	if !ok {
		return w.shared.fail(fmt.Errorf("core: commit of partition %d with unexpected payload %T", id, data))
	}
	w.resident[id] = st
	return nil
}

// discard drops the ownership reference of a fetched partition the
// aborted execution will never commit — without a write-back, since
// the run's result is discarded.
func (w *phase4Worker) discard(id uint32, _ any) {
	_ = w.shared.owner.release(w.index, id, false)
}

func (w *phase4Worker) load(id uint32) error {
	st, err := w.fetch(id)
	if err != nil {
		return err
	}
	return w.commit(id, st)
}

// evict removes a resident partition from this worker without writing
// it back — the synchronous half of an asynchronous unload, run on the
// cursor at the unload's tape position. The ownership reference (and
// its budget charge) is held until the matching flush lands: an
// in-flight write-back still occupies real memory.
func (w *phase4Worker) evict(id uint32) (any, error) {
	st, ok := w.resident[id]
	if !ok {
		return nil, w.shared.fail(fmt.Errorf("core: evict of non-resident partition %d", id))
	}
	delete(w.resident, id)
	return st, nil
}

// flush drops the evicted partition's ownership reference — the
// asynchronous half, run on the executor's write-back goroutines. The
// last worker to let go performs the real store write, carrying every
// worker's folds.
func (w *phase4Worker) flush(id uint32, _ any) error {
	if err := w.shared.owner.release(w.index, id, true); err != nil {
		return w.shared.fail(err)
	}
	return nil
}

func (w *phase4Worker) unload(id uint32) error {
	if _, err := w.evict(id); err != nil {
		return fmt.Errorf("core: unload: %w", err)
	}
	return w.flush(id, nil)
}

// pairAhead starts background reads of the tuple shards an upcoming
// pair (or self visit, when a == b) will consume, so the cursor finds
// them already read and de-duplicated.
func (w *phase4Worker) pairAhead(a, b uint32) {
	w.shared.shards.ShardAhead(a, b)
	if a != b {
		w.shared.shards.ShardAhead(b, a)
	}
}

// pair processes both directed shards of the unordered pair {a, b} as
// one scoring batch: combining (a,b) and (b,a) gives the scoring
// fan-out the largest possible parallel unit, so CPU parallelism and
// prefetch I/O overlap compose. Tuple order (forward shard then
// reverse) matches the former per-shard processing, keeping
// accumulator tie-breaking identical. No pair spans tape workers, so
// each shard is consumed exactly once.
func (w *phase4Worker) pair(a, b uint32) error {
	if err := w.shared.ctxErr(); err != nil {
		return err
	}
	fwd, err := w.shared.table.Shard(a, b)
	if err != nil {
		return w.shared.fail(err)
	}
	rev, err := w.shared.table.Shard(b, a)
	if err != nil {
		return w.shared.fail(err)
	}
	switch {
	case len(rev) == 0:
		return w.scoreTuples(fwd)
	case len(fwd) == 0:
		return w.scoreTuples(rev)
	default:
		batch := make([]tuples.Tuple, 0, len(fwd)+len(rev))
		batch = append(batch, fwd...)
		batch = append(batch, rev...)
		return w.scoreTuples(batch)
	}
}

func (w *phase4Worker) self(id uint32) error {
	if err := w.shared.ctxErr(); err != nil {
		return err
	}
	ts, err := w.shared.table.Shard(id, id)
	if err != nil {
		return w.shared.fail(err)
	}
	return w.scoreTuples(ts)
}

func (w *phase4Worker) scoreTuples(ts []tuples.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	scores, err := w.scorer.Score(ts, w.lookup)
	if err != nil {
		return w.shared.fail(err)
	}
	// Fold in runs of same-partition sources (a batch is the forward
	// shard then the reverse, so sources form at most a few runs),
	// taking each owning partition's fold lock once per run: TopK
	// pushes use a total order over (score, id), so the fold result is
	// identical no matter how the workers' runs interleave.
	for lo := 0; lo < len(ts); {
		pid := w.shared.assign.Of(ts[lo].S)
		hi := lo + 1
		for hi < len(ts) && w.shared.assign.Of(ts[hi].S) == pid {
			hi++
		}
		owner, ok := w.resident[pid]
		if !ok {
			return w.shared.fail(fmt.Errorf("core: partition %d of source %d not resident", pid, ts[lo].S))
		}
		if err := w.shared.owner.fold(pid, func() {
			for i := lo; i < hi; i++ {
				owner.accs[ts[i].S].Push(ts[i].D, scores[i])
			}
		}); err != nil {
			return w.shared.fail(err)
		}
		lo = hi
	}
	w.shared.scored.Add(int64(len(ts)))
	return nil
}

func (w *phase4Worker) lookup(u uint32) (profile.Vector, error) {
	st, ok := w.resident[w.shared.assign.Of(u)]
	if !ok {
		return profile.Vector{}, fmt.Errorf("core: partition %d of user %d not resident", w.shared.assign.Of(u), u)
	}
	return st.lookup(u)
}

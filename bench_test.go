// Benchmark harness: one benchmark per table/figure of the paper plus
// the future-work experiments (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Table 1 benches report "ops" (partition load/unload operations), the
// paper's metric. The Figure 1 bench reports per-phase milliseconds of
// the five-phase pipeline. Future-work benches sweep graph size, memory
// (partition count), disk model, and worker count.
package knnpc

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/fault"
	"knnpc/internal/load"
	"knnpc/internal/netstore"
	"knnpc/internal/nndescent"
	"knnpc/internal/partition"
	"knnpc/internal/pigraph"
	"knnpc/internal/profile"
	"knnpc/internal/serve"
	"knnpc/internal/stream"
)

// --- Table 1: load/unload operations per heuristic on six datasets ---

var (
	piCache   = make(map[string]*pigraph.PIGraph)
	piCacheMu sync.Mutex
)

func presetPI(b *testing.B, name string) *pigraph.PIGraph {
	b.Helper()
	piCacheMu.Lock()
	defer piCacheMu.Unlock()
	if g, ok := piCache[name]; ok {
		return g
	}
	spec, ok := dataset.PresetByName(name)
	if !ok {
		b.Fatalf("unknown preset %q", name)
	}
	dg, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	g, err := pigraph.FromDigraph(dg)
	if err != nil {
		b.Fatal(err)
	}
	piCache[name] = g
	return g
}

// BenchmarkTable1 regenerates the paper's Table 1: for every dataset ×
// heuristic cell it plans and simulates the PI traversal and reports
// the load/unload operation count as the "ops" metric.
func BenchmarkTable1(b *testing.B) {
	for _, spec := range dataset.PaperPresets() {
		for _, h := range pigraph.AllHeuristics() {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, h.Name()), func(b *testing.B) {
				g := presetPI(b, spec.Name)
				var ops int64
				for i := 0; i < b.N; i++ {
					ops = h.Plan(g).Simulate().Ops()
				}
				b.ReportMetric(float64(ops), "ops")
			})
		}
	}
}

// --- Figure 1: the five-phase pipeline ---

func benchStore(b *testing.B, users int) *profile.Store {
	b.Helper()
	vecs, _, err := dataset.RatingsProfiles(users, 4*users, 25, 8, 1234)
	if err != nil {
		b.Fatal(err)
	}
	return profile.NewStoreFromVectors(vecs)
}

// BenchmarkFigure1Phases runs full five-phase iterations of the
// out-of-core engine (on-disk state) and reports per-phase wall time in
// milliseconds — the pipeline the paper's Figure 1 depicts.
func BenchmarkFigure1Phases(b *testing.B) {
	store := benchStore(b, 2000)
	eng, err := core.New(store, core.Options{
		K:             10,
		NumPartitions: 8,
		OnDisk:        true,
		ScratchDir:    b.TempDir(),
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	var sum core.PhaseTimes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.Iterate(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sum.Partition += st.Phases.Partition
		sum.Tuples += st.Phases.Tuples
		sum.PIGraph += st.Phases.PIGraph
		sum.Score += st.Phases.Score
		sum.Update += st.Phases.Update
	}
	// Fractional milliseconds: Duration.Milliseconds truncates, which
	// reads the sub-millisecond phases 3 and 5 as 0.
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(b.N) }
	b.ReportMetric(ms(sum.Partition), "p1-partition-ms")
	b.ReportMetric(ms(sum.Tuples), "p2-tuples-ms")
	b.ReportMetric(ms(sum.PIGraph), "p3-pigraph-ms")
	b.ReportMetric(ms(sum.Score), "p4-score-ms")
	b.ReportMetric(ms(sum.Update), "p5-update-ms")
}

// --- FW-1: execution time vs graph size ---

// BenchmarkFutureWorkGraphSize sweeps the number of users at fixed K
// and m, timing one full iteration — the paper's "different graph
// sizes" axis.
func BenchmarkFutureWorkGraphSize(b *testing.B) {
	for _, users := range []int{1000, 2000, 5000, 10000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			store := benchStore(b, users)
			eng, err := core.New(store, core.Options{
				K:             10,
				NumPartitions: 8,
				OnDisk:        true,
				ScratchDir:    b.TempDir(),
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Iterate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FW-2: memory (partition count) sweep ---

// BenchmarkFutureWorkMemory sweeps m. Smaller m means bigger partitions
// (more memory per slot, fewer load/unload ops); larger m means a
// smaller memory footprint bought with more I/O operations — the
// paper's "amounts of memory" axis. The "ops" and "resident-bytes"
// metrics expose the trade-off.
func BenchmarkFutureWorkMemory(b *testing.B) {
	for _, m := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			store := benchStore(b, 3000)
			eng, err := core.New(store, core.Options{
				K:             10,
				NumPartitions: m,
				OnDisk:        true,
				ScratchDir:    b.TempDir(),
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			var ops int64
			var bytesPerPart float64
			for i := 0; i < b.N; i++ {
				st, err := eng.Iterate(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				ops = st.Ops()
				if st.Loads > 0 {
					bytesPerPart = float64(st.IO.BytesRead) / float64(st.Loads)
				}
			}
			b.ReportMetric(float64(ops), "ops")
			b.ReportMetric(2*bytesPerPart, "resident-bytes")
		})
	}
}

// --- FW-3: HDD vs SSD vs NVMe disk models ---

// BenchmarkFutureWorkDiskModel measures one engine iteration's real I/O
// counters and projects them through the three disk cost models,
// reporting modeled device milliseconds — the paper's "HDD and SSD"
// axis.
func BenchmarkFutureWorkDiskModel(b *testing.B) {
	for _, model := range []disk.Model{disk.HDD, disk.SSD, disk.NVMe} {
		b.Run(model.Name, func(b *testing.B) {
			store := benchStore(b, 3000)
			eng, err := core.New(store, core.Options{
				K:             10,
				NumPartitions: 8,
				OnDisk:        true,
				ScratchDir:    b.TempDir(),
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			var modeled float64
			var throughput float64
			for i := 0; i < b.N; i++ {
				st, err := eng.Iterate(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				modeled = float64(model.EstimateTime(st.IO).Milliseconds())
				throughput = model.Throughput(st.IO) / (1 << 20)
			}
			b.ReportMetric(modeled, "modeled-ms")
			b.ReportMetric(throughput, "MiB/s")
		})
	}
}

// --- FW-4: thread scaling ---

// BenchmarkFutureWorkThreads sweeps the phase-4 scoring worker count —
// the paper's "multiple threads" axis.
func BenchmarkFutureWorkThreads(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			store := benchStore(b, 3000)
			eng, err := core.New(store, core.Options{
				K:             10,
				NumPartitions: 8,
				Workers:       workers,
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Iterate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- FW-5 / ablations ---

// BenchmarkHeuristicAblation compares all four traversal heuristics on
// one realistic engine-produced PI structure (not a preset topology):
// the PI graph of a partitioned KNN iteration.
func BenchmarkHeuristicAblation(b *testing.B) {
	g := presetPI(b, dataset.Gnutella)
	for _, h := range pigraph.AllHeuristics() {
		b.Run(h.Name(), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				ops = h.Plan(g).Simulate().Ops()
			}
			b.ReportMetric(float64(ops), "ops")
		})
	}
}

// BenchmarkStaticFrameworkContrast quantifies the paper's motivation:
// a static edge-streaming framework (X-Stream/GraphChi style,
// internal/stream) runs PageRank with one sequential scan per round,
// but a KNN iteration would force it to rewrite its entire edge store
// every round because G(t+1) rewires the graph. The bench reports the
// per-round streamed bytes for PageRank, the full-rewrite bytes a KNN
// round would add on top, and — for contrast — the KNN engine's actual
// per-iteration I/O on the same graph size.
func BenchmarkStaticFrameworkContrast(b *testing.B) {
	const users = 3000
	b.Run("pagerank-stream", func(b *testing.B) {
		g, err := dataset.PreferentialAttachment(users, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		scratch, err := disk.NewScratch(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		var stats disk.IOStats
		eng, err := stream.New(g, 8, scratch, &stats)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Cleanup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := stats.Snapshot()
			if _, err := eng.PageRank(1, 0.85); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.Snapshot().Sub(before).BytesRead), "stream-bytes/round")
		}
	})
	b.Run("knn-rewrite-on-static", func(b *testing.B) {
		g, err := dataset.PreferentialAttachment(users, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		scratch, err := disk.NewScratch(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		var stats disk.IOStats
		eng, err := stream.New(g, 8, scratch, &stats)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Cleanup()
		b.ResetTimer()
		var written int64
		for i := 0; i < b.N; i++ {
			g2, err := dataset.PreferentialAttachment(users, 10, int64(i+2))
			if err != nil {
				b.Fatal(err)
			}
			written, err = eng.RewriteAll(g2)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(written), "rewrite-bytes/round")
	})
	b.Run("knn-engine", func(b *testing.B) {
		store := benchStore(b, users)
		eng, err := core.New(store, core.Options{
			K:             10,
			NumPartitions: 8,
			OnDisk:        true,
			ScratchDir:    b.TempDir(),
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := eng.Iterate(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.IO.BytesRead+st.IO.BytesWritten), "io-bytes/round")
		}
	})
}

// BenchmarkPipelinedPhase4 contrasts serial phase-4 execution with the
// three-stream pipelined executor on the on-disk configuration — the
// paper's actual bottleneck (blocking partition and shard I/O). All
// variants perform the identical load/unload op sequence for their
// slot budget (reported as "ops"), so any wall-time difference is pure
// I/O–compute overlap; "prefetched" counts the loads issued
// asynchronously ahead of the scoring cursor and "async-wb" the
// unloads written back behind it.
//
// The "hdd" group enforces the HDD model's seek+transfer latency on
// every state access and phase-4 shard read (core.Options.EmulateDisk;
// the emulated device is serialized like a real single spindle),
// reproducing the paper's latency-bound setting on hosts whose page
// cache hides real disk cost. The ablation ladder adds one overlapped
// stream at a time: load prefetch, then async write-back (which hides
// the other half of the state traffic the prefetcher can't touch),
// then shard read-ahead. A wider slot budget both removes ops and
// lengthens the unload→reload hazard distance, giving the pipeline
// real lookahead room.
//
// The "workers" group extends the ladder past the single cursor: the
// op tape itself is sharded across ExecWorkers executors (same slots=4
// full pipeline per worker), so scoring runs concurrently while all
// emulated I/O still queues on the one shared spindle. The summed op
// count ("ops") is deterministic for each (slots, workers) pair —
// every worker's segment tape is fixed by the split — and is reported
// so accounting drift fails review; workers that hold a partition
// simultaneously share one in-memory instance, which is why wall time
// drops below the single-cursor rung instead of paying W× the I/O.
//
// The "netstore" group moves partition state behind the sharded
// network store (loopback cluster in-process): every shard owns a
// contiguous partition range with its OWN emulated HDD spindle, while
// tuple-shard reads keep queueing on the local spindle. Workers hold
// private copies under store-side leases and write mergeable partials
// — journal appends on the shard's log-structured write path (no
// seek), while every read and base install pays full random-access
// cost — so nothing serializes on one device. The rungs sweep shards ∈
// {1, 2, 4} at workers ∈ {2, 4} to show the single-spindle queueing
// ceiling (workers/4 above) moving once shards ≥ 2: at identical
// summed ops, phase 4 runs ~14% under the workers/4 rung at shards=2
// and ~21% under it at shards=4. Op counts are identical to the same
// (slots, workers) in-process rung: the tape does not depend on where
// the store lives.
//
// The "build" group turns to the other side of the iteration: the
// same netstore layout as the shards=4 rungs, with the phase-1/2 build
// pool off (serial) and on (BuildWorkers=4). Tuple tallies, shard
// contents and the op tape are bit-identical either way — only the
// "build-ms" metric (phase 1 + phase 2 wall time) moves, because the
// strided state installs sleep on four shard spindles concurrently and
// tuple generation overlaps the local spindle's spill appends.
//
// The "raw" group runs at host speed, where page-cache-backed I/O is
// so cheap that the pipeline's goroutine and synchronization overhead
// can exceed the I/O it hides — the honest boundary of the technique,
// kept here so the trade-off stays visible.
func BenchmarkPipelinedPhase4(b *testing.B) {
	variants := []struct {
		name           string
		emulate        *disk.Model
		users, k       int
		parts          int
		workers        int
		slots          int
		prefetchDepth  int
		asyncWriteback bool
		shardPrefetch  int
		execWorkers    int
		netShards      int
		buildWorkers   int
	}{
		{"hdd/serial", &disk.HDD, 4000, 16, 8, 2, 2, 0, false, 0, 1, 0, 1},
		{"hdd/prefetch=2", &disk.HDD, 4000, 16, 8, 2, 2, 2, false, 0, 1, 0, 1},
		{"hdd/prefetch=2+writeback", &disk.HDD, 4000, 16, 8, 2, 2, 2, true, 0, 1, 0, 1},
		{"hdd/prefetch=2+writeback+shard=2", &disk.HDD, 4000, 16, 8, 2, 2, 2, true, 2, 1, 0, 1},
		{"hdd/slots=4+full-pipeline", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 1, 0, 1},
		{"workers/2", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 2, 0, 1},
		{"workers/4", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 4, 0, 1},
		{"netstore/workers=2/shards=1", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 2, 1, 1},
		{"netstore/workers=2/shards=2", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 2, 2, 1},
		{"netstore/workers=2/shards=4", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 2, 4, 1},
		{"netstore/workers=4/shards=1", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 4, 1, 1},
		{"netstore/workers=4/shards=2", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 4, 2, 1},
		{"netstore/workers=4/shards=4", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 4, 4, 1},
		{"build/serial", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 4, 4, 1},
		{"build/workers=4", &disk.HDD, 4000, 16, 8, 2, 4, 4, true, 4, 4, 4, 4},
		{"raw/serial", nil, 4000, 10, 32, 4, 2, 0, false, 0, 1, 0, 1},
		{"raw/full-pipeline", nil, 4000, 10, 32, 4, 2, 2, true, 2, 1, 0, 1},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			store := benchStore(b, v.users)
			eng, err := core.New(store, core.Options{
				K:              v.k,
				NumPartitions:  v.parts,
				Workers:        v.workers,
				ExecWorkers:    v.execWorkers,
				BuildWorkers:   v.buildWorkers,
				Slots:          v.slots,
				PrefetchDepth:  v.prefetchDepth,
				AsyncWriteback: v.asyncWriteback,
				ShardPrefetch:  v.shardPrefetch,
				NetStoreShards: v.netShards,
				OnDisk:         true,
				EmulateDisk:    v.emulate,
				ScratchDir:     b.TempDir(),
				Seed:           1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			var scoreMS, buildMS float64
			var ops, prefetched, asyncWB int64
			for i := 0; i < b.N; i++ {
				st, err := eng.Iterate(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				scoreMS += float64(st.Phases.Score.Microseconds()) / 1000
				buildMS += float64((st.Phases.Partition + st.Phases.Tuples).Microseconds()) / 1000
				ops = st.Ops()
				prefetched = st.PrefetchedLoads
				asyncWB = st.AsyncUnloads
			}
			b.ReportMetric(scoreMS/float64(b.N), "p4-score-ms")
			b.ReportMetric(buildMS/float64(b.N), "build-ms")
			b.ReportMetric(float64(ops), "ops")
			b.ReportMetric(float64(prefetched), "prefetched")
			b.ReportMetric(float64(asyncWB), "async-wb")
		})
	}
}

// BenchmarkBaselineNNDescent runs the in-memory NN-Descent baseline
// (the paper's ref [1]) on the same workload as BenchmarkFigure1Phases,
// reporting its similarity-evaluation count and final recall — the
// quality/cost context for the out-of-core engine.
func BenchmarkBaselineNNDescent(b *testing.B) {
	vecs, _, err := dataset.RatingsProfiles(2000, 8000, 25, 8, 1234)
	if err != nil {
		b.Fatal(err)
	}
	store := profile.NewStoreFromVectors(vecs)
	var evals int64
	for i := 0; i < b.N; i++ {
		_, stats, err := nndescent.Run(store, nndescent.Options{
			K: 10, Sim: profile.Cosine{}, Rho: 0.5, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		evals = stats.SimEvals
	}
	b.ReportMetric(float64(evals), "sim-evals")
}

// BenchmarkPartitionerAblation compares the phase-1 strategies on the
// paper's Σ(N_in+N_out) objective and on the downstream load/unload
// cost of one engine iteration — the design choice DESIGN.md calls out.
func BenchmarkPartitionerAblation(b *testing.B) {
	for _, p := range []partition.Partitioner{partition.Range{}, partition.Hash{}, partition.Greedy{}} {
		b.Run(p.Name(), func(b *testing.B) {
			store := benchStore(b, 2000)
			eng, err := core.New(store, core.Options{
				K:             10,
				NumPartitions: 8,
				Partitioner:   p,
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ResetTimer()
			var ops int64
			var objective int
			for i := 0; i < b.N; i++ {
				st, err := eng.Iterate(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				ops = st.Ops()
				objective = st.PartitionObjective
			}
			b.ReportMetric(float64(ops), "ops")
			b.ReportMetric(float64(objective), "objective")
		})
	}
}

// BenchmarkServeUnderPhase4 measures the serving tier's reason to
// exist: point-lookup latency WHILE phase 4 is hammering the store's
// spindles. The "primary" rung reads straight from the shard primaries
// — every lookup queues behind phase 4's base installs and partial
// appends on the same emulated HDDs, so tail latency tracks the
// engine's I/O bursts. The "replicas" rung reads from the replica
// tier: each replica pulls a partition's serve view at most once per
// committed epoch onto its own spindle and answers everything else
// from memory, so lookups stop competing with the computation. Both
// rungs run the identical engine config (2 shards, emulated HDD, full
// pipeline); only where the reads go changes. Reported metrics are the
// lookup count plus p50/p99 lookup latency in milliseconds — the
// numbers knnserve's /stats endpoint reports in production.
func BenchmarkServeUnderPhase4(b *testing.B) {
	const users = 2000
	for _, v := range []struct {
		name     string
		replicas bool
	}{
		{"primary", false},
		{"replicas", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			store := benchStore(b, users)
			eng, err := core.New(store, core.Options{
				K:                10,
				NumPartitions:    8,
				Workers:          2,
				ExecWorkers:      2,
				Slots:            2,
				PrefetchDepth:    2,
				AsyncWriteback:   true,
				NetStoreShards:   2,
				PublishViews:     true,
				NetStoreReplicas: v.replicas,
				OnDisk:           true,
				EmulateDisk:      &disk.HDD,
				ScratchDir:       b.TempDir(),
				Seed:             1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// Warmup iteration publishes the first serve views so
			// lookups never miss during the measured window.
			if _, err := eng.Iterate(context.Background()); err != nil {
				b.Fatal(err)
			}
			addrs := eng.StoreAddrs()
			if v.replicas {
				addrs = eng.ReplicaAddrs()
			}
			client, err := netstore.Dial(addrs, 8)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()

			b.ResetTimer()
			var lats []time.Duration
			for i := 0; i < b.N; i++ {
				stop := make(chan struct{})
				done := make(chan []time.Duration, 1)
				go func() {
					var local []time.Duration
					for j := 0; ; j++ {
						select {
						case <-stop:
							done <- local
							return
						default:
						}
						u := uint32((j * 37) % users)
						t0 := time.Now()
						if _, _, err := client.Neighbors(u); err != nil {
							b.Errorf("lookup(%d): %v", u, err)
							done <- local
							return
						}
						local = append(local, time.Since(t0))
					}
				}()
				_, err := eng.Iterate(context.Background())
				close(stop)
				if err != nil {
					b.Fatal(err)
				}
				lats = append(lats, <-done...)
			}
			b.StopTimer()
			if len(lats) == 0 {
				b.Fatal("no lookups completed during phase 4")
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p50 := lats[len(lats)*50/100]
			p99 := lats[min(len(lats)-1, len(lats)*99/100)]
			b.ReportMetric(float64(len(lats)), "lookups")
			b.ReportMetric(float64(p50.Microseconds())/1000, "lookup-p50-ms")
			b.ReportMetric(float64(p99.Microseconds())/1000, "lookup-p99-ms")
		})
	}
}

// BenchmarkServeUnderLoad replays a deterministic Zipfian read workload
// (internal/load, the same plan cmd/knnload builds) against the serving
// tier while the engine iterates underneath. Where
// BenchmarkServeUnderPhase4 hammers a single closed loop of uniform
// lookups, this rung ladder measures the production question: skewed
// open-loop traffic through the HTTP front end, read from the primaries
// ("primary"), from the replica tier ("replicas"), and via the store
// protocol with no HTTP in the path ("direct"). All rungs replay the
// identical op sequence, so the deltas isolate the read tier and the
// front end's overhead. The "faults" rung repeats the replica-tier
// shape with every replica listener wrapped in a seeded delay+drop
// plan: reads must keep flowing through the client retry ladder and
// the front end's primary fallback — a wedged front end shows up as a
// starved op count — with the surviving error rate reported and
// bounded. Reported metrics are the merged read p50/p99 (worse of
// neighbors/profile, matching knnload's table) and the serviced-op
// count.
func BenchmarkServeUnderLoad(b *testing.B) {
	const users = 2000
	plan, err := load.BuildPlan(load.PlanConfig{
		Users: users, Items: 500, Ops: 3000,
		Rate: 1500, Skew: 1.1, ProfileFrac: 0.3,
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name     string
		replicas bool // read tier
		direct   bool // skip HTTP, drive the store protocol
		faults   bool // seeded chaos on the replica listeners
	}{
		{"primary", false, false, false},
		{"replicas", true, false, false},
		{"direct", true, true, false},
		{"faults", true, false, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			store := benchStore(b, users)
			eng, err := core.New(store, core.Options{
				K:                10,
				NumPartitions:    8,
				Workers:          2,
				ExecWorkers:      2,
				Slots:            2,
				PrefetchDepth:    2,
				AsyncWriteback:   true,
				NetStoreShards:   2,
				PublishViews:     true,
				NetStoreReplicas: v.replicas && !v.faults,
				OnDisk:           true,
				EmulateDisk:      &disk.HDD,
				ScratchDir:       b.TempDir(),
				Seed:             1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			// Warmup iteration publishes the first serve views so the
			// measured traffic never misses.
			if _, err := eng.Iterate(context.Background()); err != nil {
				b.Fatal(err)
			}
			replicaAddrs := eng.ReplicaAddrs()
			if v.faults {
				// The faults rung hosts its own replica tier so the
				// listeners can be wrapped in the seeded plan — the
				// same seam cmd/statestore -faults uses.
				fp, err := fault.NewPlan(fault.PlanConfig{
					Seed:      7,
					DropRate:  0.02,
					DelayRate: 0.1, MaxDelay: 2 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				reps, err := netstore.StartReplicasOpts(
					[]string{"127.0.0.1:0", "127.0.0.1:0"},
					eng.StoreAddrs(), 8, nil,
					netstore.ReplicaSetOptions{
						WrapListener: func(shard int, ln net.Listener) net.Listener {
							return fp.Listener(ln)
						},
					})
				if err != nil {
					b.Fatal(err)
				}
				defer reps.Close()
				replicaAddrs = reps.Addrs()
			}
			readAddrs := eng.StoreAddrs()
			if v.replicas {
				readAddrs = replicaAddrs
			}
			var target load.Target
			if v.direct {
				target, err = load.NewDirectTarget(v.name, readAddrs, 8)
				if err != nil {
					b.Fatal(err)
				}
			} else {
				srv, err := serve.New(serve.Config{
					Primaries:  eng.StoreAddrs(),
					Replicas:   replicaAddrs,
					Partitions: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				hs := httptest.NewServer(srv.Mux())
				defer hs.Close()
				target = load.NewHTTPTarget(v.name, hs.URL, 0)
			}
			defer target.Close()

			b.ResetTimer()
			var res *load.Result
			for i := 0; i < b.N; i++ {
				// Keep the engine iterating for the whole replay so the
				// measured lookups contend with live phase-4 I/O.
				stop := make(chan struct{})
				engDone := make(chan error, 1)
				go func() {
					for {
						select {
						case <-stop:
							engDone <- nil
							return
						default:
						}
						if _, err := eng.Iterate(context.Background()); err != nil {
							engDone <- err
							return
						}
					}
				}()
				res, err = load.Run(context.Background(), target, plan, load.RunConfig{Concurrency: 8})
				close(stop)
				if engErr := <-engDone; engErr != nil {
					b.Fatal(engErr)
				}
				if err != nil {
					b.Fatal(err)
				}
				if v.faults {
					// Drops that defeat both the client's per-op retry
					// ladder and the front end's primary fallback
					// surface as errors. Bounded, not zero: past 5% of
					// the serviced ops the chaos is no longer being
					// absorbed and the rung fails.
					if n, ops := res.Errors(), res.Ops(); n > ops/20 {
						b.Fatalf("%d errors over %d ops under the seeded fault plan (first: %s)",
							n, ops, res.Kinds[0].FirstError)
					}
				} else if n := res.Errors(); n > 0 {
					b.Fatalf("%d protocol errors (first: %s)", n, res.Kinds[0].FirstError)
				}
			}
			b.StopTimer()
			// Misses are legal answers, not failures: the primaries
			// republish views one partition at a time after each
			// repartition, so a user that moved shards is briefly in no
			// view. The replica tier serves complete stale epochs and
			// does not show this — the gap is part of what the rung
			// ladder measures, so report it.
			p50 := max(res.Kinds[load.Neighbors].P50, res.Kinds[load.Profile].P50)
			p99 := max(res.Kinds[load.Neighbors].P99, res.Kinds[load.Profile].P99)
			b.ReportMetric(float64(res.Ops()), "load-ops")
			b.ReportMetric(float64(res.Misses()), "misses")
			if v.faults {
				b.ReportMetric(float64(res.Errors()), "load-errors")
			}
			b.ReportMetric(float64(p50.Microseconds())/1000, "read-p50-ms")
			b.ReportMetric(float64(p99.Microseconds())/1000, "read-p99-ms")
		})
	}
}

// BenchmarkDeltaVsRebuild quantifies the incremental-maintenance
// payoff on the emulated HDD: absorbing a batch of online user adds
// through the delta path (ApplyDeltas — greedy search + partition-
// restricted candidate generation over the committed graph) versus
// paying a full five-phase iteration to fold the same users in. Both
// rungs start from the same converged on-disk engine; reported metrics
// are wall milliseconds per absorbed batch. Part of benchjson's
// critical gate.
func BenchmarkDeltaVsRebuild(b *testing.B) {
	const users, batch = 1500, 16
	vecs, _, err := dataset.RatingsProfiles(users+batch, 4*(users+batch), 25, 8, 1234)
	if err != nil {
		b.Fatal(err)
	}
	mkEngine := func(b *testing.B, n int) *core.Engine {
		eng, err := core.New(profile.NewStoreFromVectors(append([]profile.Vector(nil), vecs[:n]...)), core.Options{
			K:             10,
			NumPartitions: 8,
			OnDisk:        true,
			EmulateDisk:   &disk.HDD,
			ScratchDir:    b.TempDir(),
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Iterate(context.Background()); err != nil {
			b.Fatal(err)
		}
		return eng
	}

	b.Run("delta", func(b *testing.B) {
		eng := mkEngine(b, users)
		defer eng.Close()
		b.ResetTimer()
		var evals int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Each round deletes the previous round's batch so the adds
			// re-absorb the same ids — steady-state graph size.
			if i > 0 {
				for u := users; u < users+batch; u++ {
					eng.EnqueueDelUser(uint32(u))
				}
				if _, err := eng.ApplyDeltas(); err != nil {
					b.Fatal(err)
				}
			}
			for u := users; u < users+batch; u++ {
				eng.EnqueueAddUser(uint32(u), vecs[u])
			}
			b.StartTimer()
			ds, err := eng.ApplyDeltas()
			if err != nil {
				b.Fatal(err)
			}
			evals = ds.SimEvals
		}
		b.ReportMetric(float64(evals), "sim-evals")
	})

	b.Run("rebuild", func(b *testing.B) {
		eng := mkEngine(b, users+batch)
		defer eng.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Iterate(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"syscall"
	"time"

	"knnpc/internal/core"
	"knnpc/internal/dataset"
	"knnpc/internal/disk"
	"knnpc/internal/exact"
	"knnpc/internal/graph"
	"knnpc/internal/knn"
	"knnpc/internal/profile"
)

// The iterate-* dataset and engine shape. 4000 users keep one
// host-speed iteration near 0.8 s on two cores, so a run holds a dozen
// iterations; m=8 and S=2 are the paper's setting, which gives 68
// load/unload ops per iteration.
const (
	engineUsers    = 4000
	engineItems    = 5000
	engineK        = 16
	enginePartns   = 8
	engineWorkers  = 2
	itemsPerUser   = 25
	profileClusers = 8

	// setupRepeats is how many times a run sets up; setup_s is the
	// median, the last set-up is the one measured.
	setupRepeats = 3
	// digestIters is the iteration count (warm-up included) after
	// which the engine workloads digest their graph and measure recall.
	digestIters = 2
	// recallFloor is the lowest acceptable recall@K after digestIters
	// iterations. Measured values sit near 0.34 on seeds 1-110.
	recallFloor = 0.3
)

// engineOptions is the iterate-host shape; iterate-hdd adds one
// emulated HDD spindle and changes nothing else.
func engineOptions(seed int64, scratch string, emulate *disk.Model) core.Options {
	return core.Options{
		K:             engineK,
		NumPartitions: enginePartns,
		Workers:       engineWorkers,
		Slots:         2,
		OnDisk:        true,
		EmulateDisk:   emulate,
		ScratchDir:    scratch,
		Seed:          seed,
	}
}

func runIterateHost(cfg config, tr *tracer) (*result, error) { return runIterate(cfg, tr, nil) }

func runIterateHDD(cfg config, tr *tracer) (*result, error) {
	res, err := runIterate(cfg, tr, &disk.HDD)
	if err != nil {
		return nil, err
	}
	// Serial ≡ emulated: replay the iterate-host configuration to the
	// same iteration count; the graphs must be byte-identical.
	ref, err := referenceDigest(cfg)
	if err != nil {
		return nil, err
	}
	res.check(ref == res.digest, "graph digest %s after %d iterations differs from the host-speed replay's %s", res.digest, digestIters, ref)
	return res, nil
}

// profiles generates the engine workloads' dataset for a seed.
func profiles(users int, seed int64) ([]profile.Vector, error) {
	vecs, _, err := dataset.RatingsProfiles(users, engineItems, itemsPerUser, profileClusers, seed)
	return vecs, err
}

// setUp runs build setupRepeats times, closing all but the last
// result, and records the median set-up time.
func setUp[T interface{ Close() error }](res *result, tr *tracer, build func(parent int64) (T, error)) (T, error) {
	var got, zero T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			got.Close()
		}
		id := tr.id()
		start := time.Now()
		v, err := build(id)
		if err != nil {
			return zero, err
		}
		end := time.Now()
		tr.add(id, 0, "bench.setup", start, end)
		times = append(times, end.Sub(start).Seconds())
		got = v
	}
	res.set("setup_s", median(times), len(times))
	return got, nil
}

// newEngine builds the dataset and engine and runs the warm-up
// iteration, so spill files exist and caches are filled before timing.
func newEngine(tr *tracer, parent int64, users int, opts core.Options) (*core.Engine, error) {
	var vecs []profile.Vector
	err := tr.time(parent, "dataset.RatingsProfiles", func(int64) (err error) {
		vecs, err = profiles(users, opts.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	var eng *core.Engine
	err = tr.time(parent, "core.New", func(int64) (err error) {
		eng, err = core.New(profile.NewStoreFromVectors(vecs), opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := (&iterLog{}).iterate(eng, tr, parent); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func runIterate(cfg config, tr *tracer, emulate *disk.Model) (*result, error) {
	res := newResult()
	n := 0
	eng, err := setUp(res, tr, func(parent int64) (*core.Engine, error) {
		n++
		scratch := filepath.Join(cfg.dir, fmt.Sprintf("engine%d", n))
		return newEngine(tr, parent, engineUsers, engineOptions(cfg.seed, scratch, emulate))
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Every timed Iterate starts from the warm-up's graph G1, so each
	// does the same work: the median does not depend on how far into
	// convergence the window gets, which varies with machine speed and
	// seed. Each must produce the same G2 with the same edge changes.
	var log iterLog
	g1 := eng.Graph()
	var g2 *graph.KNN
	changes := 0
	dev0 := engineDevices(eng)
	elapsed, err := window(cfg.seconds, 3, func() error {
		if err := eng.SetGraph(g1); err != nil {
			return err
		}
		st, err := log.iterate(eng, tr, 0)
		if err != nil {
			return err
		}
		if g2 == nil {
			g2, changes = eng.Graph(), st.EdgeChanges
			return nil
		}
		n := len(log.stats)
		res.check(st.EdgeChanges == changes, "timed iteration %d: %d edge changes, the first had %d", n, st.EdgeChanges, changes)
		res.check(eng.Graph().DiffEdges(g2) == 0, "timed iteration %d: graph differs from the first's", n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	devs := diffDevices(engineDevices(eng), dev0)
	if err := recordRSS(res); err != nil {
		return nil, err
	}

	log.report(res, elapsed)
	res.set("knn.edge_changes", float64(changes), 1)
	reportDevices(res, devs, elapsed)
	res.attempted = len(log.stats)
	res.digest = digest(g2)
	res.notes = append(res.notes, fmt.Sprintf("graph digest after %d iterations: %s", digestIters, res.digest))

	recall, err := recallOf(g2, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.set("recall", recall, engineUsers)
	res.check(recall >= recallFloor, "recall %.4f below floor %.2f", recall, recallFloor)
	return res, nil
}

// referenceDigest runs a fresh iterate-host engine for digestIters
// iterations, untimed, and digests its graph.
func referenceDigest(cfg config) (string, error) {
	vecs, err := profiles(engineUsers, cfg.seed)
	if err != nil {
		return "", err
	}
	eng, err := core.New(profile.NewStoreFromVectors(vecs), engineOptions(cfg.seed, filepath.Join(cfg.dir, "reference"), nil))
	if err != nil {
		return "", err
	}
	defer eng.Close()
	for i := 0; i < digestIters; i++ {
		if _, err := eng.Iterate(context.Background()); err != nil {
			return "", err
		}
	}
	return digest(eng.Graph()), nil
}

// digest hashes the graph in knnrun -dumpgraph's line format, so equal
// graphs give equal digests however they were computed.
func digest(g *graph.KNN) string {
	h := sha256.New()
	for u := 0; u < g.NumNodes(); u++ {
		fmt.Fprintf(h, "%d:", u)
		for _, v := range g.Neighbors(uint32(u)) {
			fmt.Fprintf(h, " %d", v)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recallOf is recall@K of g against brute force on the seed's dataset.
func recallOf(g *graph.KNN, seed int64) (float64, error) {
	vecs, err := profiles(g.NumNodes(), seed)
	if err != nil {
		return 0, err
	}
	truth, err := exact.Compute(profile.NewStoreFromVectors(vecs), exact.Options{K: engineK, Sim: profile.Cosine{}, Workers: engineWorkers})
	if err != nil {
		return 0, err
	}
	return knn.Recall(g, truth), nil
}

func recordRSS(res *result) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, 1)
	return nil
}

// iterLog keeps what each timed Iterate call returned.
type iterLog struct {
	wall  []float64 // seconds, by the benchmark's stopwatch
	cpu   []float64 // process user+sys seconds
	stats []*core.IterationStats
}

// iterate runs one Iterate as a span, with the five phases laid out
// as child spans from IterationStats.Phases.
func (l *iterLog) iterate(eng *core.Engine, tr *tracer, parent int64) (*core.IterationStats, error) {
	cpu0 := cpuSeconds()
	id := tr.id()
	start := time.Now()
	st, err := eng.Iterate(context.Background())
	end := time.Now()
	if err != nil {
		return nil, err
	}
	l.wall = append(l.wall, end.Sub(start).Seconds())
	l.cpu = append(l.cpu, cpuSeconds()-cpu0)
	l.stats = append(l.stats, st)
	tr.add(id, parent, "core.Iterate", start, end)
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"partition.phase1", st.Phases.Partition},
		{"tuples.phase2", st.Phases.Tuples},
		{"pigraph.phase3", st.Phases.PIGraph},
		{"knn.phase4", st.Phases.Score},
		{"profile.phase5", st.Phases.Update},
	} {
		tr.add(tr.id(), id, ph.name, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
	return st, nil
}

// report records the per-iteration metrics as medians over the timed
// Iterate calls and counts as sums, and checks each iteration's
// measured ops against the phase-3 prediction.
func (l *iterLog) report(res *result, elapsed time.Duration) {
	n := len(l.stats)
	col := func(f func(*core.IterationStats) float64) []float64 {
		out := make([]float64, n)
		for i, st := range l.stats {
			out[i] = f(st)
		}
		return out
	}
	med := func(name string, f func(*core.IterationStats) float64) {
		res.set(name, median(col(f)), n)
	}
	tot := func(name string, f func(*core.IterationStats) float64) {
		res.set(name, sum(col(f)), n)
	}
	for i, st := range l.stats {
		res.check(st.Ops() == st.PredictedLoads+st.PredictedUnloads,
			"iteration %d: measured ops %d, phase 3 predicted %d", i, st.Ops(), st.PredictedLoads+st.PredictedUnloads)
	}
	scored := sum(col(func(s *core.IterationStats) float64 { return float64(s.TuplesScored) }))
	added := sum(col(func(s *core.IterationStats) float64 { return float64(s.TuplesAdded) }))
	res.set("iter_s", median(l.wall), n)
	res.set("work_per_s", scored/sum(l.wall), n)
	res.set("scored_per_s", scored/sum(l.wall), n)
	res.set("core.iter_cpu_s", median(l.cpu), n)
	outside := make([]float64, n)
	for i, st := range l.stats {
		outside[i] = 1000*l.wall[i] - ms(st.Phases.Total())
	}
	res.set("core.iter_outside_phases_ms", median(outside), n)
	res.set("core.iters", float64(n), n)
	med("partition.p1_ms", func(s *core.IterationStats) float64 { return ms(s.Phases.Partition) })
	med("partition.objective", func(s *core.IterationStats) float64 { return float64(s.PartitionObjective) })
	med("tuples.p2_ms", func(s *core.IterationStats) float64 { return ms(s.Phases.Tuples) })
	med("tuples.added", func(s *core.IterationStats) float64 { return float64(s.TuplesAdded) })
	med("tuples.scored", func(s *core.IterationStats) float64 { return float64(s.TuplesScored) })
	if added > 0 {
		res.set("tuples.dedup_ratio", scored/added, n)
	}
	med("pigraph.p3_ms", func(s *core.IterationStats) float64 { return ms(s.Phases.PIGraph) })
	med("pigraph.pi_edges", func(s *core.IterationStats) float64 { return float64(s.PIEdges) })
	tot("pigraph.ops", func(s *core.IterationStats) float64 { return float64(s.Ops()) })
	tot("pigraph.ops_predicted", func(s *core.IterationStats) float64 { return float64(s.PredictedLoads + s.PredictedUnloads) })
	med("knn.p4_ms", func(s *core.IterationStats) float64 { return ms(s.Phases.Score) })
	tot("knn.prefetched_loads", func(s *core.IterationStats) float64 { return float64(s.PrefetchedLoads) })
	tot("knn.async_unloads", func(s *core.IterationStats) float64 { return float64(s.AsyncUnloads) })
	tot("knn.edge_changes", func(s *core.IterationStats) float64 { return float64(s.EdgeChanges) })
	tot("knn.prefetched_shard_mb", func(s *core.IterationStats) float64 { return float64(s.PrefetchedShardBytes) / (1 << 20) })
	med("profile.p5_ms", func(s *core.IterationStats) float64 { return ms(s.Phases.Update) })
	tot("profile.updates_applied", func(s *core.IterationStats) float64 { return float64(s.UpdatesApplied) })
	med("disk.read_mb", func(s *core.IterationStats) float64 { return float64(s.IO.BytesRead) / (1 << 20) })
	med("disk.write_mb", func(s *core.IterationStats) float64 { return float64(s.IO.BytesWritten) / (1 << 20) })
	med("disk.seeks", func(s *core.IterationStats) float64 { return float64(s.IO.Seeks) })
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// deviceTimes is one emulated device's modeled and slept time.
type deviceTimes struct{ modeled, slept time.Duration }

// engineDevices reads the engine's registered spindles.
func engineDevices(eng *core.Engine) map[string]deviceTimes {
	out := make(map[string]deviceTimes)
	for _, d := range eng.IOStats().Devices {
		out[d.Name] = deviceTimes{d.Modeled, d.Slept}
	}
	return out
}

func diffDevices(after, before map[string]deviceTimes) map[string]deviceTimes {
	out := make(map[string]deviceTimes, len(after))
	for name, a := range after {
		b := before[name]
		out[name] = deviceTimes{a.modeled - b.modeled, a.slept - b.slept}
	}
	return out
}

// reportDevices records each device's time over the window.
func reportDevices(res *result, devs map[string]deviceTimes, elapsed time.Duration) {
	for _, name := range devices {
		d, ok := devs[name]
		if !ok {
			continue
		}
		res.set("disk."+name+".modeled_ms", ms(d.modeled), 1)
		res.set("disk."+name+".slept_ms", ms(d.slept), 1)
		res.set("disk."+name+".busy_frac", d.slept.Seconds()/elapsed.Seconds(), 1)
	}
}

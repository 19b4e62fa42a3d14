package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/core"
	"knnpc/internal/disk"
	"knnpc/internal/load"
	"knnpc/internal/netstore"
	"knnpc/internal/serve"
)

// The serve-netstore shape follows BenchmarkServeUnderLoad/replicas:
// 2000 users, K=10, m=8, a 2-shard cluster with one emulated HDD
// spindle per shard and a read replica per shard, phase 4 pipelined
// with ExecWorkers=2, and a Zipf(1.1) open-loop plan.
const (
	serveUsers  = 2000
	serveK      = 10
	servePartns = 8
	serveShards = 2
	loadWorkers = 2 // generator workers, so requests in flight: nproc
	planItems   = 500
	planSkew    = 1.1
	// The mix is knnload's documented default (-writefrac 0.05
	// -profilefrac 0.3) plus the smallest add and delete shares that
	// exercise the delta path: 1% adds give fresh_p90 its 100 samples
	// in a 40 s window, 0.2% deletes tombstone a few dozen users.
	planWrite   = 0.05  // POST /v1/profile single updates
	planAdd     = 0.01  // PUT /v1/profile/{id} whole-user adds
	planDel     = 0.002 // DELETE /v1/profile/{id}
	planProfile = 0.3   // share of reads that fetch the profile
	// probeRate is the traced run's store probe, taken out of the
	// serving rate so the offered load stays serveRate: 1200 samples
	// in 40 s, enough for ten beyond its p99.
	probeRate    = 30
	warmupReads  = 400
	warmupReadHz = 400

	// serveRate sits well below the knee. On two cores the read p50
	// holds near 1.5 ms up to 1400 ops/s, reaches 4 ms at 2000 and
	// 73 ms at 3000 (README.md has the sweep). At this rate a 40 s
	// window holds about 1200 writes, enough for ten samples beyond
	// the write p99; shorter windows print no write p99.
	serveRate = 500
	// latencyLimit bounds a good answer, timed from the scheduled send.
	// Below the knee the read and write p99 sit at 100-135 ms whatever
	// the rate — reads that wait out a replica's view pull behind the
	// shard spindle's phase-4 queue — so the limit sits above that
	// tail, and queueing past the knee crosses it.
	latencyLimit = 250 * time.Millisecond
)

// probeMark tags the traced run's store probe ops inside the merged
// plan. Reads carry no weight, so a negative one cannot collide.
const probeMark = -1

// stack is the deployed system in one process.
type stack struct {
	cluster  *netstore.Cluster
	replicas *netstore.ReplicaSet
	eng      *core.Engine
	srv      *serve.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	url      string
}

// Close stops the stack front to back.
func (s *stack) Close() error {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	if s.srv != nil {
		s.srv.Close()
	}
	var errs []error
	if s.eng != nil {
		errs = append(errs, s.eng.Close())
	}
	if s.replicas != nil {
		errs = append(errs, s.replicas.Close())
	}
	if s.cluster != nil {
		errs = append(errs, s.cluster.Close())
	}
	return errors.Join(errs...)
}

// startStack brings up the cluster, the replicas, the engine (with a
// warm-up iteration that publishes the first serve views), primes the
// replica caches, and mounts the HTTP handler on loopback.
func startStack(tr *tracer, parent int64, seed int64, scratch string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	err = tr.time(parent, "netstore.StartCluster", func(int64) (err error) {
		st.cluster, err = netstore.StartCluster(serveShards, servePartns, &disk.HDD)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.time(parent, "netstore.StartReplicas", func(int64) (err error) {
		st.replicas, err = netstore.StartReplicas(st.cluster.Addrs(), servePartns, &disk.HDD)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.eng, err = newEngine(tr, parent, serveUsers, core.Options{
		K:              serveK,
		NumPartitions:  servePartns,
		Workers:        2,
		ExecWorkers:    2,
		Slots:          2,
		PrefetchDepth:  2,
		AsyncWriteback: true,
		ShardPrefetch:  2,
		NetStoreAddrs:  st.cluster.Addrs(),
		PublishViews:   true,
		OnDisk:         true,
		EmulateDisk:    &disk.HDD,
		ScratchDir:     scratch,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	// Prime every replica's view cache with a read-only replay, so the
	// window does not pay the first pulls.
	err = tr.time(parent, "load.Run", func(int64) error {
		warm, err := load.BuildPlan(load.PlanConfig{
			Users: serveUsers, Items: planItems, Ops: warmupReads, Rate: warmupReadHz,
			Skew: planSkew, ProfileFrac: planProfile, Seed: seed,
		})
		if err != nil {
			return err
		}
		tgt, err := load.NewDirectTarget("warmup", st.replicas.Addrs(), servePartns)
		if err != nil {
			return err
		}
		defer tgt.Close()
		res, err := load.Run(context.Background(), tgt, warm, load.RunConfig{Concurrency: loadWorkers})
		if err != nil {
			return err
		}
		if n := res.Errors() + res.Misses(); n > 0 {
			return fmt.Errorf("warm-up reads: %d of %d failed (first: %s)", n, res.Ops(), res.Kinds[load.Neighbors].FirstError)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.time(parent, "serve.New", func(int64) (err error) {
		st.srv, err = serve.New(serve.Config{
			Primaries:  st.cluster.Addrs(),
			Replicas:   st.replicas.Addrs(),
			Partitions: servePartns,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv.Mux()}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// servePlan is the seeded open-loop plan for one window. Traced runs
// merge in the store probe, tagged with probeMark, and send that much
// less through the front end, so the offered load stays rate.
func servePlan(seed int64, rate, seconds float64, probe bool) ([]load.Op, error) {
	front := rate
	if probe {
		front -= probeRate
	}
	plan, err := load.BuildPlan(load.PlanConfig{
		Users: serveUsers, Items: planItems, Ops: int(front * seconds), Rate: front,
		Skew: planSkew, WriteFrac: planWrite, AddFrac: planAdd, DelFrac: planDel,
		ProfileFrac: planProfile, Seed: seed,
	})
	if err != nil || !probe {
		return plan, err
	}
	probes, err := load.BuildPlan(load.PlanConfig{
		Users: serveUsers, Items: planItems, Ops: int(probeRate * seconds), Rate: probeRate,
		Skew: planSkew, ProfileFrac: planProfile, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	for i := range probes {
		probes[i].Weight = probeMark
	}
	merged := append(plan, probes...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].At < merged[j].At })
	return merged, nil
}

// opRecord is one finished op as the generator saw it.
type opRecord struct {
	op        load.Op
	lag, lat  time.Duration // dispatch and completion, from the scheduled send
	done      time.Time
	err       error
	neighbors int // ids in a successful neighbors answer
}

// target is the generator's view of the front end, with every op's
// timing kept. Neighbors reads are issued here because load.HTTPTarget
// discards the ids the ≤ K check needs; every other API op goes
// through load.HTTPTarget, and probe ops to the replicas directly.
type target struct {
	base  string
	c     *http.Client // neighbors reads
	api   *load.HTTPTarget
	probe load.Target
	tr    *tracer
	start time.Time // scheduled-time origin, taken just before load.Run

	mu  sync.Mutex
	ops []opRecord
}

func newTarget(base string, probe load.Target, tr *tracer) *target {
	return &target{
		base:  base,
		api:   load.NewHTTPTarget("knnserve", base, 5*time.Second),
		probe: probe,
		tr:    tr,
		c: &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: loadWorkers},
		},
	}
}

func (t *target) Name() string { return "knnserve" }

func (t *target) Close() error {
	t.c.CloseIdleConnections()
	return t.api.Close()
}

// Do runs one op and records it; load.Run classifies the error.
func (t *target) Do(op load.Op) error {
	due := t.start.Add(op.At)
	dispatched := time.Now()
	var rec opRecord
	switch {
	case op.Weight == probeMark:
		rec.err = t.probe.Do(op)
	case op.Kind == load.Neighbors:
		rec.neighbors, rec.err = t.neighbors(op.User)
	default:
		rec.err = t.api.Do(op)
	}
	rec.done = time.Now()
	rec.op, rec.lag, rec.lat = op, dispatched.Sub(due), rec.done.Sub(due)
	t.tr.add(t.tr.id(), 0, "load."+op.Kind.String(), due, rec.done)
	t.mu.Lock()
	t.ops = append(t.ops, rec)
	t.mu.Unlock()
	return rec.err
}

// neighbors reads one user's neighbor list and returns its length. A
// 404 is load.ErrMiss and a 503 wraps load.ErrShed, as in
// load.HTTPTarget.
func (t *target) neighbors(user uint32) (int, error) {
	resp, err := t.c.Get(fmt.Sprintf("%s%s%d", t.base, api.PathNeighbors, user))
	if err != nil {
		return 0, err
	}
	defer func() { // drained, so the connection is reused
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return 0, load.ErrMiss
	case http.StatusServiceUnavailable:
		return 0, fmt.Errorf("%w: HTTP 503", load.ErrShed)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out api.NeighborsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if out.User != user {
		return 0, fmt.Errorf("neighbors answer for user %d, asked %d", out.User, user)
	}
	return len(out.Neighbors), nil
}

// pass is one committed ApplyDeltas call of the engine loop.
type pass struct {
	end  time.Time
	adds int // cumulative DeltaStats.Adds after this pass
}

// engineLoop runs passes — ApplyDeltas, then Iterate — until stop
// closes, then one last ApplyDeltas, so every add acknowledged during
// the window has a pass that can commit it.
type engineLoop struct {
	log    iterLog
	passes []pass
	apply  []float64 // ms per ApplyDeltas call
	delta  core.DeltaStats
}

func (l *engineLoop) run(eng *core.Engine, tr *tracer, stop <-chan struct{}) error {
	for {
		stopping := false
		select {
		case <-stop:
			stopping = true
		default:
		}
		id := tr.id()
		start := time.Now()
		if err := l.applyDeltas(eng, tr, id); err != nil {
			return err
		}
		if !stopping {
			if _, err := l.log.iterate(eng, tr, id); err != nil {
				return err
			}
		}
		tr.add(id, 0, "core.pass", start, time.Now())
		if stopping {
			return nil
		}
	}
}

func (l *engineLoop) applyDeltas(eng *core.Engine, tr *tracer, parent int64) error {
	id := tr.id()
	start := time.Now()
	ds, err := eng.ApplyDeltas()
	end := time.Now()
	tr.add(id, parent, "delta.ApplyDeltas", start, end)
	if err != nil {
		return fmt.Errorf("apply deltas: %w", err)
	}
	l.apply = append(l.apply, ms(end.Sub(start)))
	l.delta.Adds += ds.Adds
	l.delta.Deletes += ds.Deletes
	l.delta.Held += ds.Held
	l.delta.SimEvals += ds.SimEvals
	l.delta.Republished += ds.Republished
	l.passes = append(l.passes, pass{end, l.delta.Adds})
	return nil
}

// freshness attributes each acknowledged add to the first pass whose
// cumulative add count passes the add's sequence number, and returns
// the time from the add's ack to that pass's end, in ms, plus the
// adds no pass committed. A pass that ended before the ack counts 0.
func freshness(acks map[int]time.Time, passes []pass) (fresh []float64, uncommitted int) {
	for seq, ack := range acks {
		i := sort.Search(len(passes), func(i int) bool { return passes[i].adds > seq })
		if i == len(passes) {
			uncommitted++
			continue
		}
		fresh = append(fresh, max(0, ms(passes[i].end.Sub(ack))))
	}
	return fresh, uncommitted
}

func runServeNetstore(cfg config, tr *tracer) (*result, error) {
	res := newResult()
	n := 0
	st, err := setUp(res, tr, func(parent int64) (*stack, error) {
		n++
		return startStack(tr, parent, cfg.seed, filepath.Join(cfg.dir, fmt.Sprintf("engine%d", n)))
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	plan, err := servePlan(cfg.seed, cfg.rate(), cfg.seconds, cfg.trace)
	if err != nil {
		return nil, err
	}
	var probe load.Target
	if cfg.trace {
		if probe, err = load.NewDirectTarget("probe", st.replicas.Addrs(), servePartns); err != nil {
			return nil, err
		}
		defer probe.Close()
	}
	tgt := newTarget(st.url, probe, tr)
	defer tgt.Close()

	devs0 := stackDevices(st)
	pulls0, degraded0 := replicaCounters(st.replicas)
	var loop engineLoop
	stop := make(chan struct{})
	loopErr := make(chan error, 1)
	go func() { loopErr <- loop.run(st.eng, tr, stop) }()

	tgt.start = time.Now()
	lres, runErr := load.Run(context.Background(), tgt, plan, load.RunConfig{Concurrency: loadWorkers})
	elapsed := time.Since(tgt.start)
	devs := diffDevices(stackDevices(st), devs0)
	pulls1, degraded1 := replicaCounters(st.replicas)
	close(stop)
	if err := <-loopErr; err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if err := recordRSS(res); err != nil {
		return nil, err
	}

	loop.log.report(res, elapsed)
	reportDevices(res, devs, elapsed)
	res.set("core.passes", float64(len(loop.passes)-1), len(loop.passes)-1)
	res.set("delta.apply_p50_ms", median(loop.apply), len(loop.apply))
	res.set("delta.apply_max_ms", slices.Max(loop.apply), len(loop.apply))
	res.set("delta.adds", float64(loop.delta.Adds), len(loop.apply))
	res.set("delta.deletes", float64(loop.delta.Deletes), len(loop.apply))
	res.set("delta.held", float64(loop.delta.Held), len(loop.apply))
	res.set("delta.sim_evals", float64(loop.delta.SimEvals), len(loop.apply))
	res.set("delta.republished", float64(loop.delta.Republished), len(loop.apply))
	res.set("netstore.replica_pulls", float64(pulls1-pulls0), 1)
	res.set("netstore.replica_degraded", float64(degraded1-degraded0), 1)
	reportServer(res, st.srv.Stats())
	res.check(lres.Ops() == uint64(len(tgt.ops)), "load.Run executed %d ops, the target saw %d", lres.Ops(), len(tgt.ops))
	reportLoad(res, tgt.ops, loop.passes, elapsed)
	return res, nil
}

// rate is the serving plan's arrival rate.
func (c config) rate() float64 {
	if c.serveRate > 0 {
		return c.serveRate
	}
	return serveRate
}

// reportLoad turns the generator's records into the client-side
// metrics and checks: neighbors answers hold at most K ids, every
// failure has a class, no protocol error, every add and delete is
// acknowledged and every acknowledged add committed by some pass, and
// a base user misses only if a delete named it.
func reportLoad(res *result, ops []opRecord, passes []pass, elapsed time.Duration) {
	var reads, writes, lags, probes []float64
	var classes [load.NumClasses]int
	var sent, ok, misses, good, failed, failedMut, wrongMiss int
	acks := make(map[int]time.Time)
	deleted := make(map[uint32]time.Time) // user → delete ack
	for _, r := range ops {
		if r.op.Kind == load.DelUser && r.err == nil {
			deleted[r.op.User] = r.done
		}
	}
	for _, r := range ops {
		lat := ms(r.lat)
		if r.op.Weight == probeMark {
			if r.err == nil {
				probes = append(probes, lat)
			}
			continue
		}
		sent++
		lags = append(lags, ms(r.lag))
		switch r.op.Kind {
		case load.Neighbors, load.Profile:
			reads = append(reads, lat)
		default:
			writes = append(writes, lat)
		}
		err := r.err
		if errors.Is(err, load.ErrMiss) {
			// A miss for a user whose delete was acknowledged before the
			// read finished is the correct answer; a base user no delete
			// named must always be found.
			at, gone := deleted[r.op.User]
			if gone && at.Before(r.done) {
				err = nil
			} else if !gone && r.op.User < serveUsers {
				wrongMiss++
			}
		}
		switch {
		case err == nil:
			ok++
			if r.lat <= latencyLimit {
				good++
			}
			if r.op.Kind == load.Neighbors && r.neighbors > serveK {
				res.check(false, "neighbors of user %d: %d ids, K=%d", r.op.User, r.neighbors, serveK)
			}
			if r.op.Kind == load.AddUser {
				acks[int(r.op.User)-serveUsers] = r.done
			}
		case errors.Is(err, load.ErrMiss):
			misses++
			failed++
		default:
			classes[load.Classify(err)]++
			failed++
			if r.op.Kind == load.AddUser || r.op.Kind == load.DelUser {
				failedMut++
			}
		}
	}
	res.attempted, res.failed = sent, failed
	res.check(classes[load.ClassProtocol] == 0, "%d protocol errors", classes[load.ClassProtocol])
	res.check(failedMut == 0, "%d adds or deletes failed", failedMut)
	res.check(wrongMiss == 0, "%d reads missed a base user no delete named", wrongMiss)

	res.set("load.sent", float64(sent), sent)
	res.set("load.ok", float64(ok), sent)
	res.set("load.misses", float64(misses), sent)
	for c := load.Class(0); c < load.NumClasses; c++ {
		res.set("load.errors."+c.String(), float64(classes[c]), sent)
	}
	res.setPercentile("load.lag_p99_ms", lags, 0.99)
	res.set("read_p50_ms", median(reads), len(reads))
	res.setPercentile("read_p99_ms", reads, 0.99)
	res.set("write_p50_ms", median(writes), len(writes))
	res.setPercentile("write_p99_ms", writes, 0.99)
	res.set("fail_frac", float64(failed)/float64(max(sent, 1)), sent)
	res.set("goodput_ops_s", float64(good)/elapsed.Seconds(), sent)
	if len(probes) > 0 {
		res.set("netstore.lookup_p50_ms", median(probes), len(probes))
		res.setPercentile("netstore.lookup_p99_ms", probes, 0.99)
	}

	fresh, uncommitted := freshness(acks, passes)
	res.check(uncommitted == 0, "%d acknowledged adds were never committed", uncommitted)
	res.set("fresh_p50_ms", median(fresh), len(fresh))
	res.setPercentile("fresh_p90_ms", fresh, 0.90)
}

// reportServer records the handler's own latency: reads are the
// neighbors endpoint, writes the single-update endpoint — the largest
// read and write classes. The update endpoint sees about 1000 requests
// in a 40 s window, too few for ten beyond its p99, so its tail is the
// p90.
func reportServer(res *result, s api.StatsResponse) {
	nb, up := s.Endpoints[api.EndpointNeighbors], s.Endpoints[api.EndpointUpdate]
	reportHandler(res, "serve.handler_read", nb, 0.99, nb.P99Ms)
	reportHandler(res, "serve.handler_write", up, 0.90, up.P90Ms)
	res.set("serve.fallbacks", float64(s.ReadFallbacks), 1)
	res.set("serve.shed", float64(s.Shed), 1)
}

// reportHandler records one endpoint's median and its q-quantile tail,
// the tail only when at least minBeyond requests lie beyond it.
func reportHandler(res *result, prefix string, ep api.EndpointStats, q, tail float64) {
	n := int(ep.Requests)
	res.set(prefix+"_p50_ms", ep.P50Ms, n)
	name := fmt.Sprintf("%s_p%.0f_ms", prefix, 100*q)
	if n-1-rank(n, q) < minBeyond {
		res.notes = append(res.notes, fmt.Sprintf("%s not reported: %d requests", name, n))
		return
	}
	res.set(name, tail, n)
}

// stackDevices reads the engine's spindle and every shard's and
// replica's emulated device.
func stackDevices(st *stack) map[string]deviceTimes {
	out := engineDevices(st.eng)
	for _, d := range st.cluster.Devices() {
		m, s, _ := d.Accounting()
		out[d.Name()] = deviceTimes{m, s}
	}
	for _, r := range st.replicas.Replicas() {
		m, s, _ := r.Device().Accounting()
		out[r.Device().Name()] = deviceTimes{m, s}
	}
	return out
}

func replicaCounters(rs *netstore.ReplicaSet) (pulls, degraded uint64) {
	for _, r := range rs.Replicas() {
		pulls += r.Pulls()
		degraded += r.Degraded()
	}
	return pulls, degraded
}

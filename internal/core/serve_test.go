package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// TestServingBitIdentical is the serving-tier half of the tentpole
// invariant: turning on view publishing and read replicas must not
// perturb the computation — the graph trajectory stays bit-identical
// to the in-process engine at every (Slots, ExecWorkers, shards)
// setting, because the serving tier only reads committed state.
func TestServingBitIdentical(t *testing.T) {
	const users, iters = 300, 3
	base := Options{K: 6, NumPartitions: 8, TupleBatch: 64, Seed: 13}

	for _, slots := range []int{2, 4} {
		ref := base
		ref.Slots = slots
		_, refGraph := runEngine(t, ref, users, iters)
		for _, workers := range []int{1, 2} {
			for _, shards := range []int{1, 2, 3} {
				name := fmt.Sprintf("slots=%d workers=%d shards=%d", slots, workers, shards)
				opts := base
				opts.Slots = slots
				opts.ExecWorkers = workers
				opts.NetStoreShards = shards
				opts.PublishViews = true
				opts.NetStoreReplicas = true
				_, gotGraph := runEngine(t, opts, users, iters)
				if refGraph.DiffEdges(gotGraph) != 0 {
					t.Fatalf("%s: serving tier changed the KNN graph", name)
				}
			}
		}
	}
}

// TestQueriesDuringIterate hammers the engine's query methods from
// concurrent goroutines while iterations run, pinning that (a) they
// never race with the five phases (the -race build is the real
// assertion), (b) the epoch only moves forward, and (c) a result
// carries the state of the epoch it is stamped with — after iteration
// t commits, lookups must reflect G(t+1).
func TestQueriesDuringIterate(t *testing.T) {
	const users = 250
	store := testStore(t, users, 42)
	eng, err := New(store, Options{K: 5, NumPartitions: 6, ExecWorkers: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := uint32((i + r*83) % users)
				ids, epoch, err := eng.QueryNeighbors(u)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ids) == 0 {
					t.Errorf("user %d has no neighbors at epoch %d", u, epoch)
					return
				}
				if epoch < last {
					t.Errorf("epoch regressed %d -> %d", last, epoch)
					return
				}
				last = epoch
				if _, pepoch, err := eng.QueryProfile(u); err != nil || pepoch < last {
					t.Errorf("profile query: epoch %d err %v", pepoch, err)
					return
				}
			}
		}(r)
	}

	const iters = 3
	for i := 0; i < iters; i++ {
		if _, err := eng.Iterate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := eng.Epoch(); got != iters {
		t.Fatalf("epoch %d after %d iterations", got, iters)
	}
	// Post-run queries return the committed graph exactly.
	ids, epoch, err := eng.QueryNeighbors(7)
	if err != nil || epoch != iters {
		t.Fatalf("final query: epoch %d, %v", epoch, err)
	}
	want := eng.Graph().Neighbors(7)
	if len(ids) != len(want) {
		t.Fatalf("query returned %v, graph has %v", ids, want)
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("query returned %v, graph has %v", ids, want)
		}
	}
	if _, _, err := eng.QueryNeighbors(uint32(users)); err == nil {
		t.Fatal("out-of-range user answered")
	}
}

// TestServeViewsPublished: with PublishViews on, after an iteration
// every user is answerable through the store's point-lookup path and
// through a replica, and the answers match the engine's own committed
// state.
func TestServeViewsPublished(t *testing.T) {
	const users = 200
	store := testStore(t, users, 42)
	eng, err := New(store, Options{
		K: 5, NumPartitions: 6, NetStoreShards: 2,
		PublishViews: true, NetStoreReplicas: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"primary", eng.StoreAddrs()},
		{"replica", eng.ReplicaAddrs()},
	} {
		client, err := netstore.Dial(tc.addrs, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for u := uint32(0); u < users; u += 17 {
			epoch, ids, err := client.Neighbors(u)
			if err != nil {
				t.Fatalf("%s neighbors(%d): %v", tc.name, u, err)
			}
			if epoch == 0 {
				t.Fatalf("%s neighbors(%d): unstamped view", tc.name, u)
			}
			want, _, err := eng.QueryNeighbors(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(want) {
				t.Fatalf("%s neighbors(%d) = %v, engine has %v", tc.name, u, ids, want)
			}
			for i := range ids {
				if ids[i] != want[i] {
					t.Fatalf("%s neighbors(%d) = %v, engine has %v", tc.name, u, ids, want)
				}
			}
			_, blob, err := client.ProfileBytes(u)
			if err != nil {
				t.Fatalf("%s profile(%d): %v", tc.name, u, err)
			}
			vec, rest, err := profile.DecodeVector(blob)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%s profile(%d): bad encoding (%v, %d trailing)", tc.name, u, err, len(rest))
			}
			wantVec, _, err := eng.QueryProfile(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(vec.Entries()) != len(wantVec.Entries()) {
				t.Fatalf("%s profile(%d): %d entries, engine has %d", tc.name, u, len(vec.Entries()), len(wantVec.Entries()))
			}
		}
	}
}

// TestRemoteUpdatesDrained: updates pushed through the store's MUTATE
// path (knnserve's POST ingestion) are applied by the next phase 5,
// exactly like locally enqueued ones.
func TestRemoteUpdatesDrained(t *testing.T) {
	const users = 150
	store := testStore(t, users, 42)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 4, NetStoreShards: 2,
		PublishViews: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	client, err := netstore.Dial(eng.StoreAddrs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Push([]netstore.Mutation{
		{Op: netstore.MutSet, User: 3, Item: 4242, Weight: 7.5},
		{Op: netstore.MutSet, User: 9, Item: 4242, Weight: 1},
		{Op: netstore.MutRemove, User: 9, Item: 4242},
	}); err != nil {
		t.Fatal(err)
	}
	// Not visible before phase 5 (the lazy-update contract).
	if vec, _, _ := eng.QueryProfile(3); weightOf(vec, 4242) != 0 {
		t.Fatal("pushed update visible before phase 5")
	}
	stats, err := eng.Iterate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.UpdatesApplied != 3 {
		t.Fatalf("%d updates applied, want 3", stats.UpdatesApplied)
	}
	if vec, _, _ := eng.QueryProfile(3); weightOf(vec, 4242) != 7.5 {
		t.Fatalf("user 3 weight %v after drain, want 7.5", weightOf(vec, 4242))
	}
	if vec, _, _ := eng.QueryProfile(9); weightOf(vec, 4242) != 0 {
		t.Fatal("user 9's set+remove pair did not cancel — per-user order broken")
	}
	// And the published view reflects the post-update profile.
	_, blob, err := client.ProfileBytes(3)
	if err != nil {
		t.Fatal(err)
	}
	vec, _, err := profile.DecodeVector(blob)
	if err != nil {
		t.Fatal(err)
	}
	if weightOf(vec, 4242) != 7.5 {
		t.Fatalf("published view has weight %v, want 7.5", weightOf(vec, 4242))
	}
}

// TestPartialDrainFailureKeepsUpdates: a phase-5 drain that dies on
// shard 1 after shard 0 answered — and cleared its queue — must not
// lose shard 0's updates. The failed iteration parks them on the
// engine's backlog, and the retried phase 5 applies every pushed and
// locally enqueued update exactly once.
func TestPartialDrainFailureKeepsUpdates(t *testing.T) {
	const users, parts = 150, 4
	var cut atomic.Bool
	cluster, err := netstore.StartClusterOpts([]string{"127.0.0.1:0", "127.0.0.1:0"}, parts, nil,
		netstore.ClusterOptions{WrapListener: func(shard int, ln net.Listener) net.Listener {
			if shard != 1 {
				return ln
			}
			return &drainCutListener{Listener: ln, armed: &cut}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	eng, err := New(testStore(t, users, 42), Options{
		K: 4, NumPartitions: parts, NetStoreAddrs: cluster.Addrs(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	if _, err := eng.Iterate(ctx); err != nil {
		t.Fatal(err)
	}

	front, err := netstore.Dial(cluster.Addrs(), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	// User 2 queues on shard 0, user 3 on shard 1.
	if err := front.Push([]netstore.Mutation{
		{Op: netstore.MutSet, User: 2, Item: 4242, Weight: 7.5},
		{Op: netstore.MutSet, User: 3, Item: 4242, Weight: 2.5},
	}); err != nil {
		t.Fatal(err)
	}
	eng.EnqueueUpdate(profile.Update{User: 5, Kind: profile.SetItem, Item: 4242, Weight: 1})

	cut.Store(true)
	if _, err := eng.Iterate(ctx); err == nil {
		t.Fatal("iteration survived a drain cut on shard 1")
	}
	cut.Store(false)
	stats, err := eng.Iterate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UpdatesApplied != 3 {
		t.Fatalf("retried phase 5 applied %d updates, want 3", stats.UpdatesApplied)
	}
	for u, want := range map[uint32]float32{2: 7.5, 3: 2.5, 5: 1} {
		if vec, _, _ := eng.QueryProfile(u); weightOf(vec, 4242) != want {
			t.Fatalf("user %d weight %v after the retry, want %v", u, weightOf(vec, 4242), want)
		}
	}
	if stats, err := eng.Iterate(ctx); err != nil || stats.UpdatesApplied != 0 {
		t.Fatalf("next iteration re-applied %v updates (%v), want 0", stats.UpdatesApplied, err)
	}
}

// TestOtherKindSurvivesEngineRestart: each pass drains only the kind
// it consumes, so records of the other kind stay durable on their
// shard across an engine that exits. An update pushed before a delta
// pass is applied by the next engine's phase 5; an add pushed before
// an iteration is absorbed by the next engine's delta pass.
func TestOtherKindSurvivesEngineRestart(t *testing.T) {
	const users, parts = 120, 4
	cluster, err := netstore.StartCluster(2, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	front, err := netstore.Dial(cluster.Addrs(), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	ctx := context.Background()
	open := func() *Engine {
		t.Helper()
		eng, err := New(testStore(t, users, 42), Options{
			K: 4, NumPartitions: parts, NetStoreAddrs: cluster.Addrs(), Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// An update, then a delta pass that takes only adds and deletes.
	eng := open()
	if _, err := eng.Iterate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutSet, User: 3, Item: 4242, Weight: 2.5}}); err != nil {
		t.Fatal(err)
	}
	if stats, err := eng.ApplyDeltas(); err != nil || stats.Adds+stats.Upserts+stats.Deletes != 0 {
		t.Fatalf("delta pass over an update = %+v, %v", stats, err)
	}
	eng.Close()
	eng = open()
	stats, err := eng.Iterate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if vec, _, _ := eng.QueryProfile(3); stats.UpdatesApplied != 1 || weightOf(vec, 4242) != 2.5 {
		t.Fatalf("next engine applied %d updates, user 3 weight %v; want 1, 2.5",
			stats.UpdatesApplied, weightOf(vec, 4242))
	}

	// An add, then an iteration that takes only updates.
	vec, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: 1}, {Item: 2, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutAdd, User: users, Profile: vec.AppendBinary(nil)}}); err != nil {
		t.Fatal(err)
	}
	if stats, err := eng.Iterate(ctx); err != nil || stats.UpdatesApplied != 0 {
		t.Fatalf("iteration over an add = %+v, %v", stats, err)
	}
	eng.Close()
	eng = open()
	defer eng.Close()
	dstats, err := eng.ApplyDeltas()
	if err != nil || dstats.Adds != 1 {
		t.Fatalf("next engine's delta pass = %+v, %v; want the add", dstats, err)
	}
	if got, _, err := eng.QueryProfile(users); err != nil || !got.Equal(vec) {
		t.Fatalf("added user's profile = %v, %v", got, err)
	}
}

// drainCutListener wraps a shard's listener so that, while armed, the
// shard drops a connection the moment it reads a DRAIN request: the
// request never applies, and the client sees the shard die mid-drain.
type drainCutListener struct {
	net.Listener
	armed *atomic.Bool
}

func (l *drainCutListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &drainCutConn{Conn: c, armed: l.armed}, nil
}

// opDrain is the DRAIN opcode of docs/PROTOCOL.md.
const opDrain = 0x13

type drainCutConn struct {
	net.Conn
	armed *atomic.Bool
}

// Read cuts the connection on a DRAIN request. The server reads each
// request payload with one buffer sized to the frame, so a two-byte
// read starting with the opcode is a DRAIN and its kind byte.
func (c *drainCutConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if len(b) == 2 && n == 2 && b[0] == opDrain && c.armed.Load() {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	return n, err
}

// weightOf reads one item weight, 0 when absent.
func weightOf(v profile.Vector, item uint32) float32 {
	w, _ := v.Weight(item)
	return w
}

// TestServeOptionValidation rejects serving configs that cannot work.
func TestServeOptionValidation(t *testing.T) {
	store := testStore(t, 30, 1)
	if _, err := New(store, Options{K: 3, PublishViews: true}); err == nil {
		t.Error("PublishViews without a network store accepted")
	}
	if _, err := New(store, Options{K: 3, NetStoreReplicas: true, PublishViews: true}); err == nil {
		t.Error("NetStoreReplicas without NetStoreShards accepted")
	}
	if _, err := New(store, Options{K: 3, NetStoreShards: 2, NetStoreReplicas: true}); err == nil {
		t.Error("NetStoreReplicas without PublishViews accepted")
	}
}

// TestQueryBeforeFirstIterate: epoch 0 queries answer from the seed
// graph and P(0) — the serving tier is live from construction.
func TestQueryBeforeFirstIterate(t *testing.T) {
	store := testStore(t, 50, 2)
	eng, err := New(store, Options{K: 3, NumPartitions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ids, epoch, err := eng.QueryNeighbors(5)
	if err != nil || epoch != 0 || len(ids) != 3 {
		t.Fatalf("seed query: ids=%v epoch=%d err=%v", ids, epoch, err)
	}
	if _, _, err := eng.QueryProfile(5); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaViewsRepublished drives the full online-mutation loop over
// the store fleet: a front end pushes user adds and deletes, ApplyDeltas
// drains them, commits, and republishes only the affected partitions'
// views — so primaries and replicas serve the added user and miss the
// deleted one, and the staleness document is retrievable.
func TestDeltaViewsRepublished(t *testing.T) {
	const users = 200
	store := testStore(t, users, 42)
	eng, err := New(store, Options{
		K: 5, NumPartitions: 6, NetStoreShards: 2,
		PublishViews: true, NetStoreReplicas: true, Seed: 3,
		StalenessThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	front, err := netstore.Dial(eng.StoreAddrs(), 6)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutAdd, User: users, Profile: vec.AppendBinary(nil)}}); err != nil {
		t.Fatal(err)
	}
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutDel, User: 5}}); err != nil {
		t.Fatal(err)
	}

	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Adds != 1 || ds.Deletes != 1 {
		t.Fatalf("remote mutations landed as %+v", ds)
	}
	if ds.Republished == 0 {
		t.Fatal("no partition views republished after the delta commit")
	}

	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"primary", eng.StoreAddrs()},
		{"replica", eng.ReplicaAddrs()},
	} {
		client, err := netstore.Dial(tc.addrs, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, ids, err := client.Neighbors(users); err != nil || len(ids) == 0 {
			t.Fatalf("%s: added user not served: ids=%v err=%v", tc.name, ids, err)
		}
		if _, _, err := client.Neighbors(5); err == nil {
			t.Fatalf("%s: deleted user still served", tc.name)
		}
	}

	doc, ok, err := front.Staleness()
	if err != nil || !ok {
		t.Fatalf("staleness doc missing: ok=%v err=%v", ok, err)
	}
	if doc.Threshold != 0.5 || len(doc.Partitions) == 0 {
		t.Fatalf("staleness doc %+v", doc)
	}
	var adds, deletes uint64
	for _, p := range doc.Partitions {
		adds += p.Adds
		deletes += p.Deletes
	}
	if adds != 1 || deletes != 1 {
		t.Fatalf("staleness rows count %d adds / %d deletes, want 1/1", adds, deletes)
	}
	if doc.Users != uint64(users+1) {
		t.Fatalf("staleness doc advertises %d users, want %d", doc.Users, users+1)
	}

	// A full iteration resets the published document.
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}
	doc, ok, err = front.Staleness()
	if err != nil || !ok {
		t.Fatal("staleness doc gone after full iteration")
	}
	for _, p := range doc.Partitions {
		if p.Adds != 0 || p.Deletes != 0 || p.Score != 0 {
			t.Fatalf("staleness not reset after full iteration: %+v", p)
		}
	}

	// An upsert of an existing user must republish the user's OWN
	// committed partition (not just its neighbors'): the fresh profile
	// is served from primaries and replicas, and the staleness row
	// attributes the churn to that partition.
	const target = 7
	vec2, err := profile.NewVector([]profile.Entry{{Item: 9, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutAdd, User: target, Profile: vec2.AppendBinary(nil)}}); err != nil {
		t.Fatal(err)
	}
	ds, err = eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Upserts != 1 || ds.Republished == 0 {
		t.Fatalf("upsert pass reported %+v", ds)
	}
	own := eng.partitionOfUser(target)
	if own < 0 {
		t.Fatalf("upserted user %d has no committed partition", target)
	}
	doc, ok, err = front.Staleness()
	if err != nil || !ok {
		t.Fatalf("staleness doc missing after upsert: ok=%v err=%v", ok, err)
	}
	var row *netstore.PartitionStaleness
	for i := range doc.Partitions {
		if doc.Partitions[i].Partition == uint32(own) {
			row = &doc.Partitions[i]
		}
	}
	if row == nil || row.Adds != 1 {
		t.Fatalf("upsert churn not attributed to own partition %d: %+v", own, doc.Partitions)
	}
	want := vec2.AppendBinary(nil)
	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"primary", eng.StoreAddrs()},
		{"replica", eng.ReplicaAddrs()},
	} {
		client, err := netstore.Dial(tc.addrs, 6)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		_, blob, err := client.ProfileBytes(target)
		if err != nil {
			t.Fatalf("%s: upserted profile not served: %v", tc.name, err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("%s: serves a stale profile for upserted user %d", tc.name, target)
		}
	}
}

// TestDeltaMalformedPayloadSkipped: a front end can journal arbitrary
// bytes as an add record's profile (the PUT path accepts the body with a
// 202 before the engine ever sees it). An undecodable payload must not
// wedge the delta path — it is dropped and counted, and every
// well-formed mutation in the same drain still lands.
func TestDeltaMalformedPayloadSkipped(t *testing.T) {
	const users = 60
	store := testStore(t, users, 9)
	eng, err := New(store, Options{
		K: 4, NumPartitions: 3, NetStoreShards: 2,
		PublishViews: true, Seed: 5, StalenessThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Iterate(context.Background()); err != nil {
		t.Fatal(err)
	}

	front, err := netstore.Dial(eng.StoreAddrs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutAdd, User: users, Profile: []byte{0xff, 0x01}}}); err != nil {
		t.Fatal(err)
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Push([]netstore.Mutation{{Op: netstore.MutAdd, User: users, Profile: vec.AppendBinary(nil)}}); err != nil {
		t.Fatal(err)
	}

	ds, err := eng.ApplyDeltas()
	if err != nil {
		t.Fatalf("malformed payload wedged the pass: %v", err)
	}
	if ds.Malformed != 1 || ds.Adds != 1 {
		t.Fatalf("pass reported %+v, want 1 malformed / 1 add", ds)
	}
	if _, _, err := eng.QueryNeighbors(users); err != nil {
		t.Fatalf("well-formed add did not land: %v", err)
	}

	// The dropped payload is gone for good: the next pass is a strict
	// no-op, not a retry loop.
	ds, err = eng.ApplyDeltas()
	if err != nil {
		t.Fatal(err)
	}
	if *ds != (DeltaStats{}) {
		t.Fatalf("follow-up pass reported %+v, want all-zero", ds)
	}
}

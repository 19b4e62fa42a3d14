package netstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knnpc/internal/profile"
)

// startDurable launches a single durable shard over dir, returning the
// server and a client dialed at it.
func startDurable(t *testing.T, addr, dir string) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr: addr, Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialOptions([]string{srv.Addr()}, 4, fastOpts)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, client
}

// TestRecoveryReplayEqualsPreCrashState: every durable surface written
// before an abrupt stop — bases, views, partials, tombstones, the
// queued mutation log, the staleness doc — reads back identically
// from a server recovered over the same data directory.
func TestRecoveryReplayEqualsPreCrashState(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(1, []byte("base-1")); err != nil {
		t.Fatal(err)
	}
	token, err := client.Lease(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.PutPartial(1, token, []byte("partial-1")); err != nil {
		t.Fatal(err)
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 3, Weight: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	view := EncodeView([]ViewEntry{{User: 5, Neighbors: []uint32{1, 9}, Profile: vec.AppendBinary(nil)}})
	if err := client.PutView(1, view); err != nil {
		t.Fatal(err)
	}
	pushed := []Mutation{
		{Op: MutSet, User: 5, Item: 3, Weight: 2},
		{Op: MutAdd, User: 6, Profile: vec.AppendBinary(nil)},
		{Op: MutDel, User: 7},
	}
	for _, m := range pushed {
		if err := client.Push([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 2, Users: 8})); err != nil {
		t.Fatal(err)
	}
	baseEpoch, viewEpoch, err := client.Epoch(1)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Abrupt stop: no snapshot on close, the journal is the truth.
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()

	if got, err := client2.Get(1); err != nil || string(got) != "base-1" {
		t.Fatalf("recovered base = %q, %v", got, err)
	}
	if be, ve, err := client2.Epoch(1); err != nil || be != baseEpoch || ve != viewEpoch {
		t.Fatalf("recovered epochs = (%d, %d), %v; want (%d, %d)", be, ve, err, baseEpoch, viewEpoch)
	}
	if _, blob, err := client2.GetView(1); err != nil || !bytes.Equal(blob, view) {
		t.Fatalf("recovered view mismatch: %v", err)
	}
	if epoch, ids, err := client2.Neighbors(5); err != nil || len(ids) != 2 || epoch != viewEpoch {
		t.Fatalf("recovered lookup = (%d, %v, %v)", epoch, ids, err)
	}
	// The tombstone survived: user 7 answers not-served, not a scan.
	if _, _, err := client2.Neighbors(7); !errors.Is(err, ErrNotServed) {
		t.Fatalf("tombstoned lookup after recovery = %v, want ErrNotServed", err)
	}
	doc, ok, err := client2.Staleness()
	if err != nil || !ok || doc.LastFullEpoch != 2 || doc.Users != 8 {
		t.Fatalf("recovered staleness = %+v, %v, %v", doc, ok, err)
	}
	muts, err := drainLog(client2)
	if err != nil || !bytes.Equal(EncodeMutations(muts), EncodeMutations(byKind(pushed))) {
		t.Fatalf("recovered mutation log = %+v, %v; want %+v", muts, err, pushed)
	}
	// The pre-crash partial replayed, so a RESET (the engine's retry
	// barrier) still has something to drop — and the base survives it.
	if err := client2.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, err := client2.Get(1); err != nil || string(got) != "base-1" {
		t.Fatalf("post-reset base = %q, %v", got, err)
	}
}

// TestRecoveryLeaseFencing: a lease token issued before the crash is
// dead after recovery — the restart wipes the volatile lease table, so
// a pre-crash worker's write-back answers ErrStaleLease instead of
// contaminating the healed run.
func TestRecoveryLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(2, []byte("state")); err != nil {
		t.Fatal(err)
	}
	preCrash, err := client.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()

	if err := client2.PutPartial(2, preCrash, []byte("zombie")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("pre-crash token accepted: %v, want ErrStaleLease", err)
	}
	// Token monotonicity across the crash: the healed worker's fresh
	// lease never collides with the fenced one.
	fresh, err := client2.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh <= preCrash {
		t.Fatalf("post-recovery token %d not past pre-crash token %d", fresh, preCrash)
	}
	if err := client2.PutPartial(2, fresh, []byte("healed")); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
}

// TestClientReconnectAcrossRestart: one Client rides a server restart
// — the idempotent retry path redials the poisoned connection and the
// read answers from the recovered state, with no re-dial by the
// caller.
func TestClientReconnectAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	// The default retry ladder, squeezed in time: the reconnect under
	// test is the redial inside roundTripRetry, not the backoff length.
	client, err := DialOptions([]string{addr}, 4, ClientOptions{
		MaxAttempts: 4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.PutBase(0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(0); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2, err := NewServer(ServerConfig{
		Addr: addr, Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// Same client object: the first attempt fails on the dead conn, the
	// retry ladder redials the restarted server and reads the recovered
	// state.
	blob, err := client.Get(0)
	if err != nil || string(blob) != "durable" {
		t.Fatalf("reconnect Get = %q, %v", blob, err)
	}
}

// TestRecoveryTornJournalTail: garbage appended past the last whole
// journal record — the shape a mid-append crash leaves — is truncated
// on recovery; the whole records replay and new appends land cleanly
// after the cut.
func TestRecoveryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(3, []byte("whole-record")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	journal := filepath.Join(dir, "journal")
	pre, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) == 0 {
		t.Fatal("journal empty before tear; the test would be vacuous")
	}
	// A torn append: a length prefix promising more than was written.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x40, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()

	if got, err := client2.Get(3); err != nil || string(got) != "whole-record" {
		t.Fatalf("recovered base = %q, %v", got, err)
	}
	post, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(post, pre) {
		t.Fatalf("torn tail not truncated: journal is %d bytes, want %d", len(post), len(pre))
	}
	if err := client2.PutBase(3, []byte("after-cut")); err != nil {
		t.Fatal(err)
	}
	if got, err := client2.Get(3); err != nil || string(got) != "after-cut" {
		t.Fatalf("post-cut base = %q, %v", got, err)
	}
}

// TestSnapshotCutOnCommitMarker: a staleness publish — the engine's
// per-iteration commit marker — cuts a snapshot and truncates the
// journal, so recovery after a long run replays one iteration's tail,
// not the whole history.
func TestSnapshotCutOnCommitMarker(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	defer srv.Close()
	defer client.Close()

	if err := client.PutBase(0, []byte("iteration-state")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot exists before any commit marker: %v", err)
	}
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("commit marker cut no snapshot: %v", err)
	}
	info, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("journal holds %d bytes after a snapshot cut, want 0", info.Size())
	}
}

// TestRecoveryAfterSnapshotCutAndAppend: records appended *after* a
// snapshot cut start at journal offset zero — the cut must rewind the
// fd along with the truncate, or every post-cut append lands past a
// zero-filled hole that replay reads as a garbage record. (Found by
// scripts/e2e_chaos.sh: the first mid-run crash after a commit-marker
// cut could not recover.)
func TestRecoveryAfterSnapshotCutAndAppend(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(0, []byte("pre-cut")); err != nil {
		t.Fatal(err)
	}
	// The commit marker cuts a snapshot and truncates the journal.
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	if err := client.PutBase(1, []byte("post-cut")); err != nil {
		t.Fatal(err)
	}
	// The post-cut record must sit at offset zero, not past a hole.
	info, err := os.Stat(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 + 1 + 4 + 1 + 8 + len("post-cut")); info.Size() != want {
		t.Fatalf("post-cut journal is %d bytes, want %d (a hole before the record?)", info.Size(), want)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	if got, err := client2.Get(0); err != nil || string(got) != "pre-cut" {
		t.Fatalf("snapshot state = %q, %v", got, err)
	}
	if got, err := client2.Get(1); err != nil || string(got) != "post-cut" {
		t.Fatalf("post-cut journal state = %q, %v", got, err)
	}
}

// TestRecoveryFromSnapshotOnly: state that lives entirely in the
// snapshot (journal truncated by the commit-marker cut) recovers
// without any journal records to replay — the pending mutation log
// and tombstones included.
func TestRecoveryFromSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()

	if err := client.PutBase(1, []byte("snapped")); err != nil {
		t.Fatal(err)
	}
	queued := []Mutation{
		{Op: MutAdd, User: 4, Profile: []byte("p4")},
		{Op: MutRemove, User: 2, Item: 9},
		{Op: MutDel, User: 3},
	}
	if err := client.Push(queued); err != nil {
		t.Fatal(err)
	}
	if err := client.PutStaleness(EncodeStaleness(StalenessDoc{LastFullEpoch: 3})); err != nil {
		t.Fatal(err)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	if got, err := client2.Get(1); err != nil || string(got) != "snapped" {
		t.Fatalf("snapshot-only recovery Get = %q, %v", got, err)
	}
	doc, ok, err := client2.Staleness()
	if err != nil || !ok || doc.LastFullEpoch != 3 {
		t.Fatalf("snapshot-only staleness = %+v, %v, %v", doc, ok, err)
	}
	if _, _, err := client2.Neighbors(3); !errors.Is(err, ErrNotServed) {
		t.Fatalf("snapshot-only tombstone lookup = %v, want ErrNotServed", err)
	}
	muts, err := drainLog(client2)
	if err != nil || !bytes.Equal(EncodeMutations(muts), EncodeMutations(byKind(queued))) {
		t.Fatalf("snapshot-only mutation log = %+v, %v; want %+v", muts, err, queued)
	}
}

// TestRecoveryKeepsUndrainedKind: a journaled DRAIN replays as the
// drain of its own kind only, so records of the other kind still queued
// before the crash are queued after it.
func TestRecoveryKeepsUndrainedKind(t *testing.T) {
	dir := t.TempDir()
	srv, client := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr()
	pushed := []Mutation{
		{Op: MutSet, User: 2, Item: 9, Weight: 1},
		{Op: MutAdd, User: 4, Profile: []byte("p4")},
		{Op: MutRemove, User: 2, Item: 9},
		{Op: MutDel, User: 3},
	}
	if err := client.Push(pushed); err != nil {
		t.Fatal(err)
	}
	if users, err := client.Drain(DrainUsers); err != nil || len(users) != 2 {
		t.Fatalf("pre-crash user drain = %+v, %v", users, err)
	}
	client.Close()
	srv.Close()

	srv2, client2 := startDurable(t, addr, dir)
	defer srv2.Close()
	defer client2.Close()
	muts, err := drainLog(client2)
	if want := []Mutation{pushed[0], pushed[2]}; err != nil || !bytes.Equal(EncodeMutations(muts), EncodeMutations(want)) {
		t.Fatalf("recovered log = %+v, %v; want the two updates", muts, err)
	}
}

// TestRecoveryRejectsOldSnapshot: a KSN1 snapshot (two pending queues)
// is refused with an error naming its version, never half-decoded.
func TestRecoveryRejectsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), []byte("KSN1\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Shard: 0, Shards: 1, NumPartitions: 4, DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("a KSN1 snapshot was accepted")
	}
	if !strings.Contains(err.Error(), `"KSN1"`) {
		t.Fatalf("KSN1 rejection %q does not name the version", err)
	}
}

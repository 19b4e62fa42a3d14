package netstore

import (
	"bytes"
	"encoding/binary"
	"testing"

	"knnpc/internal/pigraph"
)

// FuzzDecodeMutations: the mutation-batch decoder — MUTATE bodies,
// DRAIN answers and the snapshot's queue all go through it — never
// panics on arbitrary bytes, and re-encoding an accepted batch gives
// back exactly the input, so no record is silently reshaped between a
// front end and the engine. Seeds: testdata/fuzz/FuzzDecodeMutations.
func FuzzDecodeMutations(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		muts, err := DecodeMutations(blob)
		if err != nil {
			return
		}
		if got := EncodeMutations(muts); !bytes.Equal(got, blob) {
			t.Fatalf("round trip turned %x into %x", blob, got)
		}
	})
}

// fuzzShard is an empty, not listening shard 0 of 2, so replayed
// records split into owned (queued) and foreign (tombstones only).
func fuzzShard(t *testing.T) *Server {
	router, err := pigraph.NewShardRouter(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return newShardState(ServerConfig{Shard: 0, Shards: 2, NumPartitions: 4}, router)
}

// FuzzReplay runs recovery's two steps — restore a KSN2 snapshot, then
// replay the journal — over arbitrary bytes. Neither step may panic. A
// snapshot is accepted or refused whole. Replay keeps every whole
// record and cuts only a torn tail: the bytes after the kept prefix do
// not start with a whole frame, replaying the kept prefix again cuts
// nothing more and rebuilds the same state, and that state survives a
// snapshot round trip. Seeds: testdata/fuzz/FuzzReplay, cut from a
// real shard's data directory.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		recover := func(journal []byte) (*Server, int64, error) {
			s := fuzzShard(t)
			if len(snapshot) > 0 {
				if err := s.restoreState(snapshot); err != nil {
					return nil, 0, err
				}
			}
			good, err := s.replayJournal(journal)
			return s, good, err
		}
		s, good, err := recover(journal)
		if s == nil || err != nil {
			return // a refused snapshot or a whole record that cannot apply: loud, not truncated
		}
		if good < 0 || good > int64(len(journal)) {
			t.Fatalf("replay kept %d of %d journal bytes", good, len(journal))
		}
		if tail := journal[good:]; len(tail) >= 4 {
			if n := binary.BigEndian.Uint32(tail); n != 0 && uint64(n) <= uint64(len(tail)-4) {
				t.Fatalf("replay cut at %d before a whole %d-byte record", good, n)
			}
		}
		state := s.encodeStateLocked()
		again, good2, err := recover(journal[:good])
		if err != nil || good2 != good {
			t.Fatalf("replaying the kept prefix: kept %d of %d, %v", good2, good, err)
		}
		if !bytes.Equal(again.encodeStateLocked(), state) {
			t.Fatal("replaying the kept prefix rebuilt a different state")
		}
		restored := fuzzShard(t)
		if err := restored.restoreState(state); err != nil {
			t.Fatalf("restoring the recovered state's snapshot: %v", err)
		}
		if !bytes.Equal(restored.encodeStateLocked(), state) {
			t.Fatal("the recovered state does not survive a snapshot round trip")
		}
	})
}

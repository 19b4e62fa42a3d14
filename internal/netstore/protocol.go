// Package netstore implements the network state store of multi-process
// phase 4: partition state moves through a sharded key-value service
// speaking a minimal length-prefixed TCP protocol, with each server
// shard owning a contiguous partition range and its own (emulated)
// spindle — so phase-4 state I/O queues per shard instead of on one
// global device, which is exactly the ceiling the single shared spindle
// hits at four tape workers.
//
// The protocol has five compute verbs plus housekeeping:
//
//	GET p            → the partition's base state blob
//	PUT p kind tok b → store a blob: kind "base" (phase 1; resets the
//	                   partition's partials, revokes outstanding
//	                   leases, and bumps the partition's epoch), kind
//	                   "partial" (a worker's write-back, admitted only
//	                   under a live fencing token), or kind "view" (the
//	                   committed per-partition serve view, stamped with
//	                   the current epoch)
//	LEASE p          → a fencing token; many workers may hold
//	                   overlapping leases on one partition
//	RELEASE p tok    → invalidate one token
//	COLLECT          → stream every owned partition (base + partials)
//	                   in ascending id order
//	CLEAR            → drop compute state (bases, partials, leases);
//	                   epochs, serve views, and pending updates survive
//	RESET            → drop phase-4 accumulation only (partials,
//	                   leases); bases stay — the engine's retry barrier
//	                   before re-running a failed phase 4
//
// and a read/serving side that never takes leases (the online query
// tier — replicas and cmd/knnserve — speaks only these):
//
//	EPOCH p          → the partition's epoch plus the epoch stamp of
//	                   its current serve view
//	GETVIEW p        → the serve view's epoch stamp and blob
//	NEIGHBORS u      → user u's committed neighbor ids (epoch-tagged)
//	PROFILE u        → user u's committed profile blob (epoch-tagged)
//	MUTATE batch     → append mutation-log records: profile updates
//	                   (set or remove an item) for phase 5, user adds
//	                   and deletes for the delta path. An add clears the
//	                   shard's tombstone for its user and a delete sets
//	                   it, so point lookups miss at once; only the
//	                   user's owning shard (u mod N) queues the record
//	DRAIN kind       → return and clear the pending records of one
//	                   kind — profile updates or user adds and deletes
//	                   — leaving the other kind queued
//	STALENESS        → the staleness document the engine last published
//
// Every frame is a uint32 big-endian length followed by that many
// payload bytes; requests start with a one-byte opcode, responses with
// a one-byte status. Workers never share memory: each one scores into a
// private accumulator partial and PUTs it at unload, and the partials
// merge — commutatively, via knn.TopK.Merge — when the engine COLLECTs,
// so the same code path runs in-process over loopback or across
// processes.
package netstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Opcodes (first payload byte of a request frame).
const (
	opGet       = 0x01
	opPut       = 0x02
	opLease     = 0x03
	opRelease   = 0x04
	opCollect   = 0x05
	opClear     = 0x06
	opEpoch     = 0x07
	opGetView   = 0x08
	opNeighbors = 0x09
	opProfile   = 0x0a
	// 0x0b–0x0f are retired and must not be reused: a peer still
	// speaking the verbs MUTATE and DRAIN replaced must get "unknown
	// opcode", not a misparse.
	opStaleness = 0x10
	// opReset drops the shard's phase-4 accumulation — partials and
	// leases — while keeping bases, epochs, serve views, and the pending
	// queues. It is the engine's retry barrier: before re-running a
	// failed phase 4 it RESETs every shard, so partials a half-finished
	// attempt managed to write can never merge with the rerun's (TopK
	// merge does not deduplicate; a surviving duplicate would corrupt
	// the bit-identity invariant).
	opReset = 0x11
	// opMutate appends a batch of mutation-log records (EncodeMutations)
	// to the shard's pending queue; opDrain returns and clears the
	// records of one DrainKind.
	opMutate = 0x12
	opDrain  = 0x13
)

// Statuses (first payload byte of a response frame).
const (
	statusOK    = 0x00
	statusErr   = 0x01
	statusPart  = 0x02 // one COLLECT partition payload; more frames follow
	statusEnd   = 0x03 // COLLECT stream terminator
	statusStale = 0x04 // fencing rejection: the request's lease token is not live
	statusMiss  = 0x05 // point lookup: this shard serves no view containing the user
	statusRetry = 0x06 // transient server-side fault; the request was NOT applied — retry
)

// PUT kinds.
const (
	putBase    = 0x00
	putPartial = 0x01
	putView    = 0x02
	// putDeltaView is a delta republish: it bumps the partition's epoch
	// FIRST and then installs the view stamped with the new epoch, so
	// replicas' probe-then-pull sees the stamp move without any phase-1
	// base install having happened. Compute state is untouched.
	putDeltaView = 0x03
	// putStale stores the engine's staleness document (an
	// EncodeStaleness blob) on the shard. Pure metadata: no device
	// charge, survives CLEAR, replaced wholesale by each publish.
	putStale = 0x04
)

// maxFrame bounds a frame's payload so a torn or corrupt length prefix
// fails fast instead of attempting a multi-gigabyte allocation.
const maxFrame = 1 << 28

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("netstore: frame of %d bytes exceeds the %d-byte bound", len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one length-prefixed frame. A short read mid-frame
// surfaces as io.ErrUnexpectedEOF — the torn-frame signal both sides
// treat as a dead peer.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("netstore: frame length %d exceeds the %d-byte bound (corrupt stream?)", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// appendU32 / appendU64 are the protocol's only integer encodings
// (big-endian, fixed width).
func appendU32(buf []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(buf, v) }
func appendU64(buf []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(buf, v) }

// cut reads a fixed-width prefix off buf, reporting failure on short
// payloads instead of panicking on attacker-controlled frames.
func cutU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("netstore: payload truncated (want 4 bytes, have %d)", len(buf))
	}
	return binary.BigEndian.Uint32(buf), buf[4:], nil
}

func cutU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("netstore: payload truncated (want 8 bytes, have %d)", len(buf))
	}
	return binary.BigEndian.Uint64(buf), buf[8:], nil
}

func cutByte(buf []byte) (byte, []byte, error) {
	if len(buf) < 1 {
		return 0, nil, fmt.Errorf("netstore: payload truncated (want 1 byte, have 0)")
	}
	return buf[0], buf[1:], nil
}

// CollectItem is one partition's worth of a COLLECT stream: the base
// state blob written in phase 1 and every per-worker partial PUT since.
type CollectItem struct {
	Partition uint32
	Base      []byte
	Partials  [][]byte
}

// encodeCollectItem lays out one statusPart frame payload (after the
// status byte): partition u32, partial count u32, base length u32 +
// bytes, then per partial length u32 + bytes.
func encodeCollectItem(it CollectItem) []byte {
	n := 1 + 4 + 4 + 4 + len(it.Base)
	for _, p := range it.Partials {
		n += 4 + len(p)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, statusPart)
	buf = appendU32(buf, it.Partition)
	buf = appendU32(buf, uint32(len(it.Partials)))
	buf = appendU32(buf, uint32(len(it.Base)))
	buf = append(buf, it.Base...)
	for _, p := range it.Partials {
		buf = appendU32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// decodeCollectItem parses a statusPart payload (status byte already
// consumed).
func decodeCollectItem(buf []byte) (CollectItem, error) {
	var it CollectItem
	var err error
	if it.Partition, buf, err = cutU32(buf); err != nil {
		return it, err
	}
	nPartials, buf, err := cutU32(buf)
	if err != nil {
		return it, err
	}
	// Each partial needs at least its 4-byte length prefix, so the
	// count is bounded by the remaining payload — validated BEFORE the
	// allocation below, or a corrupt count would be a fatal OOM instead
	// of a decode error.
	if int64(nPartials) > int64(len(buf))/4 {
		return it, fmt.Errorf("netstore: collect item of partition %d claims %d partials in %d bytes", it.Partition, nPartials, len(buf))
	}
	baseLen, buf, err := cutU32(buf)
	if err != nil {
		return it, err
	}
	if uint32(len(buf)) < baseLen {
		return it, fmt.Errorf("netstore: collect item of partition %d truncated in base blob", it.Partition)
	}
	it.Base = buf[:baseLen:baseLen]
	buf = buf[baseLen:]
	it.Partials = make([][]byte, 0, nPartials)
	for i := uint32(0); i < nPartials; i++ {
		var pLen uint32
		if pLen, buf, err = cutU32(buf); err != nil {
			return it, err
		}
		if uint32(len(buf)) < pLen {
			return it, fmt.Errorf("netstore: collect item of partition %d truncated in partial %d", it.Partition, i)
		}
		it.Partials = append(it.Partials, buf[:pLen:pLen])
		buf = buf[pLen:]
	}
	if len(buf) != 0 {
		return it, fmt.Errorf("netstore: collect item of partition %d has %d trailing bytes", it.Partition, len(buf))
	}
	return it, nil
}

// ViewEntry is one member of a partition's serve view: the user's
// committed neighbor ids and encoded profile vector, as of the epoch
// the view was published under. Views are what the read path — EPOCH /
// GETVIEW / NEIGHBORS / PROFILE — serves; the compute path never reads
// them.
type ViewEntry struct {
	User      uint32
	Neighbors []uint32
	Profile   []byte // opaque profile.Vector encoding (see internal/profile)
}

// EncodeView lays out a serve-view blob: member count u32, then per
// member the user id, neighbor count + ids, and profile length + bytes.
func EncodeView(entries []ViewEntry) []byte {
	n := 4
	for _, e := range entries {
		n += 4 + 4 + 4*len(e.Neighbors) + 4 + len(e.Profile)
	}
	buf := make([]byte, 0, n)
	buf = appendU32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendU32(buf, e.User)
		buf = appendU32(buf, uint32(len(e.Neighbors)))
		for _, id := range e.Neighbors {
			buf = appendU32(buf, id)
		}
		buf = appendU32(buf, uint32(len(e.Profile)))
		buf = append(buf, e.Profile...)
	}
	return buf
}

// DecodeView parses a serve-view blob. Sub-slices alias blob, which
// callers must therefore treat as immutable.
func DecodeView(blob []byte) ([]ViewEntry, error) {
	count, buf, err := cutU32(blob)
	if err != nil {
		return nil, err
	}
	// Every entry needs at least 12 bytes of fixed header, bounding the
	// claimed count before the allocation (same rule as collect items).
	if int64(count) > int64(len(buf))/12 {
		return nil, fmt.Errorf("netstore: view claims %d members in %d bytes", count, len(buf))
	}
	entries := make([]ViewEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		var e ViewEntry
		if e.User, buf, err = cutU32(buf); err != nil {
			return nil, fmt.Errorf("netstore: view member %d: %w", i, err)
		}
		nbrs, rest, err := cutU32(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: view member %d: %w", i, err)
		}
		buf = rest
		if int64(nbrs) > int64(len(buf))/4 {
			return nil, fmt.Errorf("netstore: view member %d claims %d neighbors in %d bytes", i, nbrs, len(buf))
		}
		e.Neighbors = make([]uint32, nbrs)
		for j := range e.Neighbors {
			e.Neighbors[j] = binary.BigEndian.Uint32(buf)
			buf = buf[4:]
		}
		pLen, rest, err := cutU32(buf)
		if err != nil {
			return nil, fmt.Errorf("netstore: view member %d: %w", i, err)
		}
		buf = rest
		if uint32(len(buf)) < pLen {
			return nil, fmt.Errorf("netstore: view member %d truncated in profile blob", i)
		}
		e.Profile = buf[:pLen:pLen]
		buf = buf[pLen:]
		entries = append(entries, e)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("netstore: view has %d trailing bytes", len(buf))
	}
	return entries, nil
}

// Mutation-log record ops (first byte of an encoded record). The two
// update ops carry the values of profile.SetItem and profile.RemoveItem.
const (
	// MutSet sets one (item, weight) entry of an existing user's profile
	// at the engine's next phase 5.
	MutSet = 0x01
	// MutRemove removes one item from a user's profile at the next
	// phase 5.
	MutRemove = 0x02
	// MutAdd records a user (re)entering the graph, carrying the profile
	// vector the engine's delta path places.
	MutAdd = 0x03
	// MutDel records a user leaving the graph.
	MutDel = 0x04
)

// Mutation is one record of the mutation log: a profile update the
// engine applies lazily in phase 5 (MutSet, MutRemove) or a user add or
// delete its delta path absorbs (MutAdd, MutDel). Records queue on
// shard User mod N — a user-keyed mapping that is stable across
// iterations, unlike partitions — so one user's records drain in push
// order.
type Mutation struct {
	// Op is MutSet, MutRemove, MutAdd or MutDel.
	Op byte
	// User is the mutated user id.
	User uint32
	// Item and Weight are the profile entry of MutSet and MutRemove
	// (MutRemove ignores the weight but carries it, so decoding and
	// re-encoding any accepted record is the identity).
	Item   uint32
	Weight float32
	// Profile is the opaque profile.Vector encoding of MutAdd; empty
	// otherwise.
	Profile []byte
}

// IsUpdate reports whether m is a phase-5 profile update rather than a
// user add or delete.
func (m Mutation) IsUpdate() bool { return m.Op == MutSet || m.Op == MutRemove }

// DrainKind is the one body byte of a DRAIN request: which records of
// the pending queue it takes. Each engine pass drains only the kind it
// consumes, so records of the other kind stay durable on their shard.
type DrainKind byte

// The drain kinds.
const (
	// DrainUpdates takes the profile updates (MutSet, MutRemove) that
	// the engine's phase 5 applies.
	DrainUpdates DrainKind = 0x01
	// DrainUsers takes the user adds and deletes (MutAdd, MutDel) that
	// the engine's delta pass absorbs.
	DrainUsers DrainKind = 0x02
)

// kind reports the DrainKind that takes m.
func (m Mutation) kind() DrainKind {
	if m.IsUpdate() {
		return DrainUpdates
	}
	return DrainUsers
}

// parseDrainKind validates a DRAIN body (or a drain journal record):
// exactly one byte naming a known kind.
func parseDrainKind(body []byte) (DrainKind, error) {
	if len(body) != 1 || (DrainKind(body[0]) != DrainUpdates && DrainKind(body[0]) != DrainUsers) {
		return 0, fmt.Errorf("netstore: drain kind %x is not 01 (updates) or 02 (users)", body)
	}
	return DrainKind(body[0]), nil
}

// size is the record's encoded length.
func (m Mutation) size() int {
	switch m.Op {
	case MutAdd:
		return 1 + 4 + 4 + len(m.Profile)
	case MutDel:
		return 1 + 4
	default:
		return 1 + 4 + 4 + 4
	}
}

// EncodeMutations serializes a record batch — a MUTATE body, a DRAIN
// answer, the queue of a KSN2 snapshot: count u32, then per record the
// op byte and user u32, followed by item u32 and weight float32 bits
// (MutSet, MutRemove), profile length u32 + bytes (MutAdd), or nothing
// (MutDel).
func EncodeMutations(muts []Mutation) []byte {
	n := 4
	for _, m := range muts {
		n += m.size()
	}
	buf := make([]byte, 0, n)
	buf = appendU32(buf, uint32(len(muts)))
	for _, m := range muts {
		buf = append(buf, m.Op)
		buf = appendU32(buf, m.User)
		switch m.Op {
		case MutAdd:
			buf = appendU32(buf, uint32(len(m.Profile)))
			buf = append(buf, m.Profile...)
		case MutDel:
		default:
			buf = appendU32(buf, m.Item)
			buf = appendU32(buf, math.Float32bits(m.Weight))
		}
	}
	return buf
}

// DecodeMutations parses a record batch, rejecting unknown ops on
// arrival so a malformed batch fails its sender, not the draining
// engine. Profile sub-slices alias blob, which callers must therefore
// treat as immutable.
func DecodeMutations(blob []byte) ([]Mutation, error) {
	count, buf, err := cutU32(blob)
	if err != nil {
		return nil, err
	}
	// Every record needs at least its 5-byte op + user header, bounding
	// the claimed count before the allocation (same rule as collect
	// items).
	if int64(count) > int64(len(buf))/5 {
		return nil, fmt.Errorf("netstore: mutation batch claims %d records in %d bytes", count, len(buf))
	}
	muts := make([]Mutation, 0, count)
	for i := uint32(0); i < count; i++ {
		var m Mutation
		if m.Op, buf, err = cutByte(buf); err != nil {
			return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
		}
		if m.User, buf, err = cutU32(buf); err != nil {
			return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
		}
		switch m.Op {
		case MutSet, MutRemove:
			if m.Item, buf, err = cutU32(buf); err != nil {
				return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
			}
			var bits uint32
			if bits, buf, err = cutU32(buf); err != nil {
				return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
			}
			m.Weight = math.Float32frombits(bits)
		case MutAdd:
			var pLen uint32
			if pLen, buf, err = cutU32(buf); err != nil {
				return nil, fmt.Errorf("netstore: mutation %d: %w", i, err)
			}
			if uint32(len(buf)) < pLen {
				return nil, fmt.Errorf("netstore: mutation %d truncated in profile blob", i)
			}
			m.Profile = buf[:pLen:pLen]
			buf = buf[pLen:]
		case MutDel:
		default:
			return nil, fmt.Errorf("netstore: mutation %d has unknown op 0x%02x", i, m.Op)
		}
		muts = append(muts, m)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("netstore: mutation batch has %d trailing bytes", len(buf))
	}
	return muts, nil
}

// PartitionStaleness is one partition's row of the engine's published
// staleness document: the mutation counts accumulated since the last
// full iteration and the resulting staleness score.
type PartitionStaleness struct {
	// Partition is the partition id (per the assignment of the last
	// full iteration).
	Partition uint32
	// Adds and Deletes count delta mutations attributed to the
	// partition since its last full rebuild.
	Adds, Deletes uint64
	// TouchedEdges estimates how many graph edges delta commits have
	// rewritten inside the partition.
	TouchedEdges uint64
	// Members is the partition's population at the last full iteration.
	Members uint64
	// Score is the normalized staleness the engine's threshold compares
	// against: (Adds + Deletes + TouchedEdges/K) / max(1, Members).
	Score float64
}

// StalenessDoc is the engine's published staleness document — what
// GET /v1/staleness serves. One document covers every partition.
type StalenessDoc struct {
	// LastFullEpoch is the committed epoch of the most recent full
	// five-phase iteration.
	LastFullEpoch uint64
	// Threshold is the configured staleness threshold (0 = delta
	// scheduling disabled; every Run pass iterates fully).
	Threshold float64
	// Users is the total committed id space — every id ever assigned,
	// tombstoned ones included — so the next fresh add takes id Users.
	// Serving front ends use it to reject obviously out-of-range
	// mutation ids before they reach a journal.
	Users uint64
	// Partitions holds one row per partition, in ascending id order.
	Partitions []PartitionStaleness
}

// EncodeStaleness serializes a staleness document for putStale:
// last-full epoch u64, threshold float64 bits u64, user count u64, row
// count u32, then per row partition u32 and five u64 fields (score as
// float64 bits).
func EncodeStaleness(doc StalenessDoc) []byte {
	buf := make([]byte, 0, 8+8+8+4+44*len(doc.Partitions))
	buf = appendU64(buf, doc.LastFullEpoch)
	buf = appendU64(buf, math.Float64bits(doc.Threshold))
	buf = appendU64(buf, doc.Users)
	buf = appendU32(buf, uint32(len(doc.Partitions)))
	for _, p := range doc.Partitions {
		buf = appendU32(buf, p.Partition)
		buf = appendU64(buf, p.Adds)
		buf = appendU64(buf, p.Deletes)
		buf = appendU64(buf, p.TouchedEdges)
		buf = appendU64(buf, p.Members)
		buf = appendU64(buf, math.Float64bits(p.Score))
	}
	return buf
}

// DecodeStaleness parses an encoded staleness document.
func DecodeStaleness(blob []byte) (StalenessDoc, error) {
	var doc StalenessDoc
	var err error
	if doc.LastFullEpoch, blob, err = cutU64(blob); err != nil {
		return doc, err
	}
	bits, blob, err := cutU64(blob)
	if err != nil {
		return doc, err
	}
	doc.Threshold = math.Float64frombits(bits)
	if doc.Users, blob, err = cutU64(blob); err != nil {
		return doc, err
	}
	count, blob, err := cutU32(blob)
	if err != nil {
		return doc, err
	}
	if int64(count) > int64(len(blob))/44 {
		return doc, fmt.Errorf("netstore: staleness doc claims %d partitions in %d bytes", count, len(blob))
	}
	doc.Partitions = make([]PartitionStaleness, 0, count)
	for i := uint32(0); i < count; i++ {
		var p PartitionStaleness
		if p.Partition, blob, err = cutU32(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.Adds, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.Deletes, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.TouchedEdges, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		if p.Members, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		var sb uint64
		if sb, blob, err = cutU64(blob); err != nil {
			return doc, fmt.Errorf("netstore: staleness row %d: %w", i, err)
		}
		p.Score = math.Float64frombits(sb)
		doc.Partitions = append(doc.Partitions, p)
	}
	if len(blob) != 0 {
		return doc, fmt.Errorf("netstore: staleness doc has %d trailing bytes", len(blob))
	}
	return doc, nil
}

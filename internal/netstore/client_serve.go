package netstore

import (
	"errors"
	"fmt"
	"sync"
)

// The client's serving-side verbs. They share the compute client's
// shard connections but never touch leases: reads answer from the
// committed serve views (stale by design, bounded by one epoch), and
// mutation-log pushes feed the engine's phase-5 and delta passes.
//
// Point lookups are keyed by user, and the user→partition assignment is
// an engine-side artifact that changes every iteration — no client can
// compute it. The client therefore remembers which shard answered for
// each user (a hint cache) and falls back to asking every shard in
// order on a miss; servers answer statusMiss cheaply from their
// in-memory user index, so the scatter costs network hops, not disk.

// ReadClient is the subset of Client the serving tier needs: point
// lookups and mutation-log pushes, no compute verbs. A Client dialed
// at primaries or at replicas satisfies it; replicas refuse pushes.
type ReadClient interface {
	Neighbors(u uint32) (epoch uint64, ids []uint32, err error)
	ProfileBytes(u uint32) (epoch uint64, blob []byte, err error)
	Push(muts []Mutation) error
	Close() error
}

// DialRead dials a store tier (primaries or replicas) and returns only
// the serving surface. This is the load driver's direct-client mode:
// the same lookups knnserve issues, minus the HTTP layer, so a
// comparison of the two isolates HTTP overhead from store latency.
// Note writes pushed through a replica tier will be refused — point
// updates at the primaries.
func DialRead(addrs []string, numPartitions int) (ReadClient, error) {
	return Dial(addrs, numPartitions)
}

// hintCache remembers which shard last answered for a user.
type hintCache struct {
	mu    sync.Mutex
	shard map[uint32]int
}

func (h *hintCache) get(u uint32) (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.shard[u]
	return s, ok
}

func (h *hintCache) put(u uint32, s int) {
	h.mu.Lock()
	if h.shard == nil {
		h.shard = make(map[uint32]int)
	}
	h.shard[u] = s
	h.mu.Unlock()
}

// Epoch reports partition p's epoch counter and the epoch stamp of its
// current serve view (0 when none is published). The base epoch moves
// the moment phase 1 of a new iteration rewrites the partition; the
// view epoch only moves when that iteration commits.
func (c *Client) Epoch(p uint32) (base, view uint64, err error) {
	sc, err := c.shardFor(p)
	if err != nil {
		return 0, 0, err
	}
	body, err := sc.roundTrip(appendU32([]byte{opEpoch}, p))
	if err != nil {
		return 0, 0, err
	}
	base, rest, err := cutU64(body)
	if err != nil {
		return 0, 0, err
	}
	view, _, err = cutU64(rest)
	return base, view, err
}

// PutView publishes partition p's committed serve view (an EncodeView
// blob). The shard stamps it with the partition's current epoch.
func (c *Client) PutView(p uint32, blob []byte) error {
	sc, err := c.shardFor(p)
	if err != nil {
		return err
	}
	req := appendU32([]byte{opPut}, p)
	req = append(req, putView)
	req = appendU64(req, 0)
	req = append(req, blob...)
	_, err = sc.roundTrip(req)
	return err
}

// GetView fetches partition p's serve view blob and the epoch it was
// stamped with. This is the replica pull path; point lookups should use
// Neighbors/ProfileBytes instead.
func (c *Client) GetView(p uint32) (epoch uint64, blob []byte, err error) {
	sc, err := c.shardFor(p)
	if err != nil {
		return 0, nil, err
	}
	body, err := sc.roundTrip(appendU32([]byte{opGetView}, p))
	if err != nil {
		return 0, nil, err
	}
	epoch, blob, err = cutU64(body)
	return epoch, blob, err
}

// lookupOn issues one point-lookup op against one shard.
func (c *Client) lookupOn(s int, op byte, u uint32) ([]byte, error) {
	return c.shards[s].roundTrip(appendU32([]byte{op}, u))
}

// lookup routes a point lookup: hinted shard first, then every shard in
// order. Only ErrNotServed keeps the scatter going — a transport or
// protocol failure is reported immediately.
func (c *Client) lookup(op byte, u uint32) ([]byte, error) {
	if s, ok := c.hints.get(u); ok {
		body, err := c.lookupOn(s, op, u)
		if err == nil {
			return body, nil
		}
		if !errors.Is(err, ErrNotServed) {
			return nil, err
		}
		// The user moved shards between epochs; fall through to scatter.
	}
	for s := range c.shards {
		body, err := c.lookupOn(s, op, u)
		if err == nil {
			c.hints.put(u, s)
			return body, nil
		}
		if !errors.Is(err, ErrNotServed) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: user %d on any of %d shards", ErrNotServed, u, len(c.shards))
}

// Neighbors answers a point lookup for user u's committed KNN list and
// the epoch of the view it came from. No lease is taken — the read is
// served from the shard's immutable serve view, so it can run while
// phase 4 holds the partition's compute state.
func (c *Client) Neighbors(u uint32) (epoch uint64, ids []uint32, err error) {
	body, err := c.lookup(opNeighbors, u)
	if err != nil {
		return 0, nil, err
	}
	epoch, rest, err := cutU64(body)
	if err != nil {
		return 0, nil, err
	}
	count, rest, err := cutU32(rest)
	if err != nil {
		return 0, nil, err
	}
	if uint64(count)*4 != uint64(len(rest)) {
		return 0, nil, fmt.Errorf("netstore: neighbors response claims %d ids over %d bytes", count, len(rest))
	}
	ids = make([]uint32, count)
	for i := range ids {
		ids[i], rest, _ = cutU32(rest)
	}
	return epoch, ids, nil
}

// ProfileBytes answers a point lookup for user u's committed profile
// vector (its binary encoding) and the epoch of the view it came from.
func (c *Client) ProfileBytes(u uint32) (epoch uint64, blob []byte, err error) {
	body, err := c.lookup(opProfile, u)
	if err != nil {
		return 0, nil, err
	}
	epoch, blob, err = cutU64(body)
	return epoch, blob, err
}

// Push appends records to the mutation log. An update record goes to
// its user's owner shard (u mod N) only; an add or delete record goes
// to every shard, each of which sets or clears its tombstone for the
// user, and again only the owner queues it. Every shard gets at most
// one MUTATE frame, its records in push order, so two pushes for one
// user drain in push order. Shards are written in index order and a
// failure stops the push: earlier shards keep what they applied.
func (c *Client) Push(muts []Mutation) error {
	n := len(c.shards)
	for s, sc := range c.shards {
		var batch []Mutation
		for _, m := range muts {
			if !m.IsUpdate() || int(m.User)%n == s {
				batch = append(batch, m)
			}
		}
		if len(batch) == 0 {
			continue
		}
		// roundTripOnce: a replayed MUTATE could queue the batch twice,
		// and the engine applies records in arrival order — duplicates
		// are real state, not noise.
		if _, err := sc.roundTripOnce(append([]byte{opMutate}, EncodeMutations(batch)...)); err != nil {
			return fmt.Errorf("netstore: mutate on shard %d: %w", s, err)
		}
	}
	return nil
}

// Drain collects and clears the records of one kind from every
// shard's pending queue, in shard order then arrival order — per-user
// order holds because a user's records all queue on its owner shard.
// Records of the other kind stay on the shards. A shard clears what it
// hands out as it answers, so on error the records collected so far
// are returned alongside it: the caller must keep them (the engine
// parks them on its backlog) or they are lost.
func (c *Client) Drain(kind DrainKind) ([]Mutation, error) {
	var all []Mutation
	for s, sc := range c.shards {
		// roundTripOnce: a drain clears the records as it answers, so if
		// the response is lost the records are in flight, not on the
		// shard — a blind replay would return nothing and the caller
		// would never learn anything was dropped.
		body, err := sc.roundTripOnce([]byte{opDrain, byte(kind)})
		if err != nil {
			return all, fmt.Errorf("netstore: drain shard %d: %w", s, err)
		}
		batch, err := DecodeMutations(body)
		if err != nil {
			return all, fmt.Errorf("netstore: drain shard %d: %w", s, err)
		}
		all = append(all, batch...)
	}
	return all, nil
}

// PutDeltaView republishes partition p's serve view after a delta
// commit: the shard bumps the partition's epoch and stamps the view
// with the new value, so replicas re-pull without any phase-1 base
// install having happened.
func (c *Client) PutDeltaView(p uint32, blob []byte) error {
	sc, err := c.shardFor(p)
	if err != nil {
		return err
	}
	req := appendU32([]byte{opPut}, p)
	req = append(req, putDeltaView)
	req = appendU64(req, 0)
	req = append(req, blob...)
	_, err = sc.roundTrip(req)
	return err
}

// PutStaleness broadcasts the engine's staleness document (an
// EncodeStaleness blob) to every shard, so any shard can answer a
// STALENESS query. Pure metadata — the PUT rides partition lo of each
// shard's range purely for routing.
func (c *Client) PutStaleness(blob []byte) error {
	for s := range c.shards {
		lo, _ := c.router.Range(s)
		req := appendU32([]byte{opPut}, uint32(lo))
		req = append(req, putStale)
		req = appendU64(req, 0)
		req = append(req, blob...)
		if _, err := c.shards[s].roundTrip(req); err != nil {
			return fmt.Errorf("netstore: put staleness on shard %d: %w", s, err)
		}
	}
	return nil
}

// Staleness fetches the engine's last published staleness document
// from shard 0 (every shard holds the same broadcast copy). The second
// return reports whether any document has been published yet.
func (c *Client) Staleness() (StalenessDoc, bool, error) {
	body, err := c.shards[0].roundTrip([]byte{opStaleness})
	if err != nil {
		return StalenessDoc{}, false, err
	}
	if len(body) == 0 {
		return StalenessDoc{}, false, nil
	}
	doc, err := DecodeStaleness(body)
	if err != nil {
		return StalenessDoc{}, false, err
	}
	return doc, true, nil
}

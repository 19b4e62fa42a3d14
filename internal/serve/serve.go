// Package serve is the HTTP front end of the online serving tier,
// extracted from cmd/knnserve so other processes — the knnload
// traffic driver's tests, benchmarks, embedders — can mount the same
// handler the production binary serves.
//
// A Server answers point lookups against the serve views published by
// a running engine (knnrun -serveviews) and feeds profile updates
// into the engine's lazy phase-5 queue. Reads go to the replica tier
// when Config.Replicas is set (stale-but-bounded answers, no load on
// the primaries' spindles during phase 4) and to the primary shards
// otherwise. Writes always go to the primaries — replicas are
// read-only.
//
// Every JSON shape on the wire is an internal/api type; the handler
// owns no struct definitions of its own, so the schema knnload
// decodes is by construction the schema this package encodes.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"knnpc/internal/api"
	"knnpc/internal/latency"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// Config describes the store tiers a Server fronts.
type Config struct {
	// Primaries are the primary statestore addresses, in shard order
	// (the same list knnrun -netstore uses). Required.
	Primaries []string
	// Replicas are read-replica addresses (statestore -replicaof),
	// replica i shadowing shard i. When set, lookups are served from
	// here, falling back to the primaries when a replica fails
	// transiently (counted as ReadFallbacks in /v1/stats).
	Replicas []string
	// Partitions is the engine's partition count m; must match the
	// cluster.
	Partitions int
	// MaxInflight, when positive, bounds concurrently served API
	// requests; excess requests are shed immediately with 503 +
	// Retry-After instead of queueing until every store connection is
	// a convoy. /healthz and /v1/stats are exempt — an overloaded
	// server must still report that it is overloaded. 0 = unlimited.
	MaxInflight int
}

// Server holds the two store clients (read tier, write tier) and the
// per-endpoint serving metrics. Lookups and pushes may run
// concurrently from many HTTP handlers; the netstore clients
// serialize per shard internally.
type Server struct {
	readers  *netstore.Client // replicas when given, else the primaries
	writers  *netstore.Client // always the primaries (replicas refuse writes)
	readTier string           // "replicas" or "primaries", for logs/stats

	maxInflight int64
	inflight    atomic.Int64
	shed        atomic.Uint64 // requests refused at the inflight limit
	fallbacks   atomic.Uint64 // replica-tier lookups the primaries answered

	neighbors endpointMetrics
	profile   endpointMetrics
	update    endpointMetrics
	upsert    endpointMetrics
	del       endpointMetrics
	staleness endpointMetrics
	queued    atomic.Uint64 // individual updates accepted
}

// endpointMetrics is one endpoint's counters plus its latency
// histogram — log-scale buckets, so the /v1/stats percentiles stay
// stable over millions of requests instead of reflecting whichever
// 4096 samples a ring last overwrote.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	misses   atomic.Uint64
	hist     latency.Histogram
}

// observe records one finished request: its wall time and how it
// ended. 404 lookup answers count as misses, every other non-2xx as
// an error.
func (m *endpointMetrics) observe(start time.Time, status int) {
	m.requests.Add(1)
	switch {
	case status == http.StatusNotFound:
		m.misses.Add(1)
	case status >= 400:
		m.errors.Add(1)
	}
	m.hist.Observe(time.Since(start))
}

// stats renders the endpoint's row of the v1 stats document.
func (m *endpointMetrics) stats() api.EndpointStats {
	s := m.hist.Snapshot()
	ms := func(q float64) float64 {
		return float64(s.Quantile(q)) / float64(time.Millisecond)
	}
	return api.EndpointStats{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Misses:   m.misses.Load(),
		P50Ms:    ms(0.50),
		P90Ms:    ms(0.90),
		P95Ms:    ms(0.95),
		P99Ms:    ms(0.99),
	}
}

// New dials both tiers. The writer client is separate even when the
// read tier IS the primaries, so a slow scatter on the read path never
// blocks update ingestion.
func New(cfg Config) (*Server, error) {
	if len(cfg.Primaries) == 0 {
		return nil, errors.New("serve: no primary store addresses")
	}
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("serve: partitions must be positive, got %d", cfg.Partitions)
	}
	readAddrs, tier := cfg.Primaries, "primaries"
	if len(cfg.Replicas) > 0 {
		if len(cfg.Replicas) != len(cfg.Primaries) {
			return nil, fmt.Errorf("serve: %d replicas for %d primary shards; replica i must shadow shard i", len(cfg.Replicas), len(cfg.Primaries))
		}
		readAddrs, tier = cfg.Replicas, "replicas"
	}
	readers, err := netstore.Dial(readAddrs, cfg.Partitions)
	if err != nil {
		return nil, fmt.Errorf("serve: dial read tier: %w", err)
	}
	writers, err := netstore.Dial(cfg.Primaries, cfg.Partitions)
	if err != nil {
		readers.Close()
		return nil, fmt.Errorf("serve: dial primaries: %w", err)
	}
	return &Server{
		readers:     readers,
		writers:     writers,
		readTier:    tier,
		maxInflight: int64(cfg.MaxInflight),
	}, nil
}

// ReadTier reports where lookups go: "replicas" or "primaries".
func (s *Server) ReadTier() string { return s.readTier }

// Close releases both store clients.
func (s *Server) Close() {
	s.readers.Close()
	s.writers.Close()
}

// Mux returns the HTTP handler serving the v1 API; mount it on any
// http.Server (or httptest).
func (s *Server) Mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /v1/neighbors/{id}", s.limit(s.handleNeighbors))
	m.HandleFunc("GET /v1/profile/{id}", s.limit(s.handleProfile))
	m.HandleFunc("POST /v1/profile", s.limit(s.handlePush))
	m.HandleFunc("PUT /v1/profile/{id}", s.limit(s.handleUpsert))
	m.HandleFunc("DELETE /v1/profile/{id}", s.limit(s.handleDelete))
	m.HandleFunc("GET "+api.PathStaleness, s.limit(s.handleStaleness))
	m.HandleFunc("GET "+api.PathHealth, s.handleHealth)
	m.HandleFunc("GET "+api.PathStats, s.handleStats)
	// Deprecated pre-v1 alias; serves the identical v1 document.
	m.HandleFunc("GET "+api.PathStatsDeprecated, s.handleStats)
	return m
}

// limit is the overload valve: past MaxInflight concurrent requests,
// shed with 503 + Retry-After rather than queueing — a convoy of
// waiting handlers holds every store connection hostage and takes the
// whole front end down with it, while a shed client backs off and the
// tier keeps its latency bound.
func (s *Server) limit(h http.HandlerFunc) http.HandlerFunc {
	if s.maxInflight <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight.Add(1) > s.maxInflight {
			s.inflight.Add(-1)
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "overloaded: in-flight request limit reached")
			return
		}
		defer s.inflight.Add(-1)
		h(w, r)
	}
}

// readNeighbors and readProfileBytes are the degraded-mode read path:
// a replica-tier lookup that fails transiently (replica down, dropped
// connection, injected fault) retries against the primaries instead of
// surfacing a 502 — the paper's serving property is that reads stay
// answerable, just possibly slower and against busier spindles. Real
// answers (ErrNotServed, a decode failure) pass through: the primary
// would only repeat them.
func (s *Server) readNeighbors(u uint32) (uint64, []uint32, error) {
	epoch, ids, err := s.readers.Neighbors(u)
	if err != nil && s.readTier == "replicas" && netstore.IsTransient(err) {
		s.fallbacks.Add(1)
		return s.writers.Neighbors(u)
	}
	return epoch, ids, err
}

func (s *Server) readProfileBytes(u uint32) (uint64, []byte, error) {
	epoch, blob, err := s.readers.ProfileBytes(u)
	if err != nil && s.readTier == "replicas" && netstore.IsTransient(err) {
		s.fallbacks.Add(1)
		return s.writers.ProfileBytes(u)
	}
	return epoch, blob, err
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	u, ok := userParam(w, r, &s.neighbors, start)
	if !ok {
		return
	}
	epoch, ids, err := s.readNeighbors(u)
	if err != nil {
		lookupError(w, u, err, &s.neighbors, start)
		return
	}
	if ids == nil {
		ids = []uint32{}
	}
	writeJSON(w, http.StatusOK, api.NeighborsResponse{User: u, Epoch: epoch, Neighbors: ids})
	s.neighbors.observe(start, http.StatusOK)
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	u, ok := userParam(w, r, &s.profile, start)
	if !ok {
		return
	}
	epoch, blob, err := s.readProfileBytes(u)
	if err != nil {
		lookupError(w, u, err, &s.profile, start)
		return
	}
	vec, rest, err := profile.DecodeVector(blob)
	if err != nil || len(rest) != 0 {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("corrupt profile for user %d: %v", u, err))
		s.profile.observe(start, http.StatusBadGateway)
		return
	}
	items := make([]api.ProfileItem, 0, len(vec.Entries()))
	for _, e := range vec.Entries() {
		items = append(items, api.ProfileItem{Item: e.Item, Weight: e.Weight})
	}
	writeJSON(w, http.StatusOK, api.ProfileResponse{User: u, Epoch: epoch, Items: items})
	s.profile.observe(start, http.StatusOK)
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	fail := func(code int, msg string) {
		writeError(w, code, msg)
		s.update.observe(start, code)
	}
	var body api.UpdateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		fail(http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(body.Updates) == 0 {
		fail(http.StatusBadRequest, "no updates")
		return
	}
	ups := make([]netstore.Mutation, 0, len(body.Updates))
	for i, u := range body.Updates {
		switch u.Op {
		case api.OpSet:
			ups = append(ups, netstore.Mutation{Op: netstore.MutSet, User: u.User, Item: u.Item, Weight: u.Weight})
		case api.OpRemove:
			ups = append(ups, netstore.Mutation{Op: netstore.MutRemove, User: u.User, Item: u.Item})
		default:
			fail(http.StatusBadRequest, fmt.Sprintf("update %d: op %q (want %q or %q)", i, u.Op, api.OpSet, api.OpRemove))
			return
		}
	}
	if err := s.writers.Push(ups); err != nil {
		fail(http.StatusBadGateway, "push failed: "+err.Error())
		return
	}
	s.queued.Add(uint64(len(ups)))
	writeJSON(w, http.StatusAccepted, api.UpdateResponse{Queued: len(ups)})
	s.update.observe(start, http.StatusAccepted)
}

// maxIDAhead bounds how far beyond the engine's published id space an
// upserted user id may run. New ids must be sequential, so a PUT this
// far ahead can never land — without the bound it would be 202-accepted
// into a store journal and then parked forever on the engine's backlog
// waiting for predecessors that do not exist. The slack absorbs adds
// accepted since the engine last published its staleness document.
const maxIDAhead = 1 << 16

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	u, ok := userParam(w, r, &s.upsert, start)
	if !ok {
		return
	}
	fail := func(code int, msg string) {
		writeError(w, code, msg)
		s.upsert.observe(start, code)
	}
	// Reject obviously out-of-range ids while the engine's published
	// id space is known. A staleness fetch failure (or no document
	// yet) skips the check — the engine tolerates out-of-range ids by
	// holding them, this is just the cheap front-line filter.
	if doc, published, err := s.writers.Staleness(); err == nil && published {
		if uint64(u) >= doc.Users+maxIDAhead {
			fail(http.StatusUnprocessableEntity, fmt.Sprintf(
				"user id %d is beyond the %d-user id space (ids below %d accepted; new ids must be sequential)",
				u, doc.Users, doc.Users+maxIDAhead))
			return
		}
	}
	var body api.UpsertRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		fail(http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	entries := make([]profile.Entry, 0, len(body.Items))
	for _, it := range body.Items {
		entries = append(entries, profile.Entry{Item: it.Item, Weight: it.Weight})
	}
	vec, err := profile.NewVector(entries)
	if err != nil {
		fail(http.StatusBadRequest, "bad profile: "+err.Error())
		return
	}
	if err := s.writers.Push([]netstore.Mutation{{Op: netstore.MutAdd, User: u, Profile: vec.AppendBinary(nil)}}); err != nil {
		fail(http.StatusBadGateway, "add failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, api.MutationResponse{User: u, Op: api.OpUpsert})
	s.upsert.observe(start, http.StatusAccepted)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	u, ok := userParam(w, r, &s.del, start)
	if !ok {
		return
	}
	if err := s.writers.Push([]netstore.Mutation{{Op: netstore.MutDel, User: u}}); err != nil {
		writeError(w, http.StatusBadGateway, "delete failed: "+err.Error())
		s.del.observe(start, http.StatusBadGateway)
		return
	}
	writeJSON(w, http.StatusAccepted, api.MutationResponse{User: u, Op: api.OpDelete})
	s.del.observe(start, http.StatusAccepted)
}

func (s *Server) handleStaleness(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	doc, ok, err := s.writers.Staleness()
	if err != nil {
		writeError(w, http.StatusBadGateway, "staleness: "+err.Error())
		s.staleness.observe(start, http.StatusBadGateway)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no staleness document published yet")
		s.staleness.observe(start, http.StatusNotFound)
		return
	}
	resp := api.StalenessResponse{
		LastFullEpoch: doc.LastFullEpoch,
		Threshold:     doc.Threshold,
		Users:         doc.Users,
		Partitions:    make([]api.PartitionStaleness, 0, len(doc.Partitions)),
	}
	for _, p := range doc.Partitions {
		resp.Partitions = append(resp.Partitions, api.PartitionStaleness{
			Partition:    p.Partition,
			Adds:         p.Adds,
			Deletes:      p.Deletes,
			TouchedEdges: p.TouchedEdges,
			Members:      p.Members,
			Score:        p.Score,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	s.staleness.observe(start, http.StatusOK)
}

// handleHealth reports per-tier reachability: an Epoch probe of
// partition 0 exercises one roundtrip on each tier. The HTTP status
// answers the load balancer's only question — can this front end serve
// anything? — so one dead tier degrades the body but keeps the 200:
// reads fall back to the primaries and a read-only front end still
// answers lookups. Only both tiers down is a 503.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	readMsg, writeMsg := "ok", "ok"
	if _, _, err := s.readers.Epoch(0); err != nil {
		readMsg = err.Error()
	}
	if _, _, err := s.writers.Epoch(0); err != nil {
		writeMsg = err.Error()
	}
	status, code := "ok", http.StatusOK
	switch {
	case readMsg != "ok" && writeMsg != "ok":
		status, code = "unreachable", http.StatusServiceUnavailable
	case readMsg != "ok" || writeMsg != "ok":
		status = "degraded"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "%s\nread %s: %s\nwrite primaries: %s\n", status, s.readTier, readMsg, writeMsg)
}

// Stats assembles the current v1 stats document — also useful to
// embedders that want the numbers without an HTTP roundtrip.
func (s *Server) Stats() api.StatsResponse {
	return api.StatsResponse{
		Version:       api.Version,
		ReadTier:      s.readTier,
		UpdatesQueued: s.queued.Load(),
		ReadFallbacks: s.fallbacks.Load(),
		Shed:          s.shed.Load(),
		Endpoints: map[string]api.EndpointStats{
			api.EndpointNeighbors: s.neighbors.stats(),
			api.EndpointProfile:   s.profile.stats(),
			api.EndpointUpdate:    s.update.stats(),
			api.EndpointUpsert:    s.upsert.stats(),
			api.EndpointDelete:    s.del.stats(),
			api.EndpointStaleness: s.staleness.stats(),
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// userParam parses the {id} path segment; on failure it writes a 400
// and books the request against the endpoint's metrics.
func userParam(w http.ResponseWriter, r *http.Request, m *endpointMetrics, start time.Time) (uint32, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id: "+r.PathValue("id"))
		m.observe(start, http.StatusBadRequest)
		return 0, false
	}
	return uint32(id), true
}

// lookupError maps store errors onto HTTP: unknown user → 404 (not in
// any published view yet), everything else → 502.
func lookupError(w http.ResponseWriter, u uint32, err error, m *endpointMetrics, start time.Time) {
	code := http.StatusBadGateway
	msg := err.Error()
	if errors.Is(err, netstore.ErrNotServed) {
		code = http.StatusNotFound
		msg = fmt.Sprintf("user %d not in any published view", u)
	}
	writeError(w, code, msg)
	m.observe(start, code)
}

// writeError emits the v1 JSON error shape with the given status.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, api.ErrorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

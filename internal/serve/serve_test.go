package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knnpc/internal/api"
	"knnpc/internal/netstore"
	"knnpc/internal/profile"
)

// fixture starts a primary cluster with one published view and returns
// it plus a Server reading through replicas.
func fixture(t *testing.T) (*netstore.Client, *Server) {
	t.Helper()
	cluster, err := netstore.StartCluster(2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	primary, err := netstore.Dial(cluster.Addrs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	for p := uint32(0); p < 4; p++ {
		if err := primary.PutBase(p, []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := profile.NewVector([]profile.Entry{{Item: 11, Weight: 2.5}, {Item: 99, Weight: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	view := netstore.EncodeView([]netstore.ViewEntry{
		{User: 7, Neighbors: []uint32{1, 2, 3}, Profile: vec.AppendBinary(nil)},
	})
	if err := primary.PutView(1, view); err != nil {
		t.Fatal(err)
	}

	reps, err := netstore.StartReplicas(cluster.Addrs(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reps.Close() })
	srv, err := New(Config{Primaries: cluster.Addrs(), Replicas: reps.Addrs(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return primary, srv
}

// get fetches a path and decodes the body into out (skipped when nil).
func get(t *testing.T, h http.Handler, path string, wantCode int, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != wantCode {
		t.Fatalf("GET %s = %d (%s), want %d", path, rec.Code, rec.Body.String(), wantCode)
	}
	if out == nil {
		return
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
	}
}

// TestLookupEndpoints: neighbors and profile answers come back as the
// shared api types with the stamped epoch; misses are 404s with the
// JSON error shape; garbage ids are 400s.
func TestLookupEndpoints(t *testing.T) {
	_, srv := fixture(t)
	h := srv.Mux()

	var nb api.NeighborsResponse
	get(t, h, "/v1/neighbors/7", http.StatusOK, &nb)
	if nb.User != 7 || nb.Epoch == 0 {
		t.Fatalf("neighbors header = %+v", nb)
	}
	if len(nb.Neighbors) != 3 || nb.Neighbors[0] != 1 {
		t.Fatalf("neighbors = %v", nb.Neighbors)
	}

	var pr api.ProfileResponse
	get(t, h, "/v1/profile/7", http.StatusOK, &pr)
	if len(pr.Items) != 2 || pr.Items[0] != (api.ProfileItem{Item: 11, Weight: 2.5}) {
		t.Fatalf("profile items = %v", pr.Items)
	}

	var apiErr api.ErrorResponse
	get(t, h, "/v1/neighbors/4040", http.StatusNotFound, &apiErr)
	if !strings.Contains(apiErr.Error, "4040") {
		t.Fatalf("miss error = %+v", apiErr)
	}
	get(t, h, "/v1/neighbors/banana", http.StatusBadRequest, &apiErr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "ok\n") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	for _, tier := range []string{"read replicas: ok", "write primaries: ok"} {
		if !strings.Contains(rec.Body.String(), tier) {
			t.Fatalf("healthz body %q missing %q", rec.Body.String(), tier)
		}
	}
}

// TestStatsVersioned: /v1/stats returns the structured per-endpoint
// document, counters book requests/misses/errors in the right rows,
// and the deprecated /stats alias serves the identical schema.
func TestStatsVersioned(t *testing.T) {
	_, srv := fixture(t)
	h := srv.Mux()

	get(t, h, "/v1/neighbors/7", http.StatusOK, nil)            // hit
	get(t, h, "/v1/neighbors/4040", http.StatusNotFound, nil)   // miss
	get(t, h, "/v1/profile/banana", http.StatusBadRequest, nil) // error

	var st api.StatsResponse
	get(t, h, "/v1/stats", http.StatusOK, &st)
	if st.Version != api.Version {
		t.Fatalf("stats version = %d", st.Version)
	}
	if st.ReadTier != "replicas" {
		t.Fatalf("read_tier = %q", st.ReadTier)
	}
	nb := st.Endpoints[api.EndpointNeighbors]
	if nb.Requests != 2 || nb.Misses != 1 || nb.Errors != 0 {
		t.Fatalf("neighbors row = %+v", nb)
	}
	if nb.P99Ms <= 0 || nb.P50Ms > nb.P99Ms {
		t.Fatalf("neighbors percentiles = %+v", nb)
	}
	pf := st.Endpoints[api.EndpointProfile]
	if pf.Requests != 1 || pf.Errors != 1 {
		t.Fatalf("profile row = %+v", pf)
	}

	// The deprecated alias answers the same versioned document
	// (modulo the percentile fields, which move with traffic).
	var alias api.StatsResponse
	get(t, h, "/stats", http.StatusOK, &alias)
	if alias.Version != st.Version || alias.ReadTier != st.ReadTier {
		t.Fatalf("alias = %+v, want the v1 document", alias)
	}
	if alias.Endpoints[api.EndpointNeighbors].Requests != nb.Requests {
		t.Fatalf("alias neighbors row = %+v", alias.Endpoints[api.EndpointNeighbors])
	}
}

// TestPushEndpoint: POSTed updates land in the primaries' phase-5
// queue in order; malformed bodies bounce before touching the store;
// the update endpoint's stats row books successes and errors.
func TestPushEndpoint(t *testing.T) {
	primary, srv := fixture(t)
	h := srv.Mux()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/profile", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := post(`{"updates":[
		{"user":3,"op":"set","item":500,"weight":4},
		{"user":3,"op":"remove","item":11}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("push = %d (%s)", rec.Code, rec.Body.String())
	}
	var resp api.UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Queued != 2 {
		t.Fatalf("push response %s (%v)", rec.Body.String(), err)
	}

	got, err := primary.Drain(netstore.DrainUpdates)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != netstore.MutSet || got[0].Item != 500 || got[0].Weight != 4 ||
		got[1].Op != netstore.MutRemove || got[1].Item != 11 {
		t.Fatalf("drained %+v", got)
	}

	if rec := post(`{"updates":[{"user":1,"op":"replace"}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad op accepted: %d", rec.Code)
	}
	if rec := post(`{"updates":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty update list accepted: %d", rec.Code)
	}
	if rec := post(`{not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body accepted: %d", rec.Code)
	}

	st := srv.Stats()
	up := st.Endpoints[api.EndpointUpdate]
	if up.Requests != 4 || up.Errors != 3 {
		t.Fatalf("update row = %+v", up)
	}
	if st.UpdatesQueued != 2 {
		t.Fatalf("updates_queued = %d", st.UpdatesQueued)
	}
}

// TestMutationEndpoints: PUT and DELETE /v1/profile/{id} queue
// add/delete mutations on the primaries for the engine's next delta
// pass; GET /v1/staleness serves the engine's published drift table
// (404 before anything is published); the three new stats rows book
// the traffic.
func TestMutationEndpoints(t *testing.T) {
	primary, srv := fixture(t)
	h := srv.Mux()

	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		h.ServeHTTP(rec, req)
		return rec
	}

	// Nothing published yet: staleness is a 404 miss, not an error.
	var apiErr api.ErrorResponse
	get(t, h, api.PathStaleness, http.StatusNotFound, &apiErr)

	rec := do("PUT", "/v1/profile/100", `{"items":[{"item":11,"weight":2.5},{"item":99,"weight":0.5}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("upsert = %d (%s)", rec.Code, rec.Body.String())
	}
	var mut api.MutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mut); err != nil || mut != (api.MutationResponse{User: 100, Op: api.OpUpsert}) {
		t.Fatalf("upsert response %s (%v)", rec.Body.String(), err)
	}
	if rec := do("DELETE", "/v1/profile/7", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("delete = %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := do("PUT", "/v1/profile/100", `{not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage upsert body accepted: %d", rec.Code)
	}
	if rec := do("PUT", "/v1/profile/banana", `{"items":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage upsert id accepted: %d", rec.Code)
	}

	// Both mutations reached the primaries' journal, in order, with the
	// profile blob intact.
	muts, err := primary.Drain(netstore.DrainUsers)
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) != 2 || muts[0].Op != netstore.MutAdd || muts[0].User != 100 ||
		muts[1].Op != netstore.MutDel || muts[1].User != 7 {
		t.Fatalf("drained mutations = %+v", muts)
	}
	vec, _, err := profile.DecodeVector(muts[0].Profile)
	if err != nil {
		t.Fatal(err)
	}
	if got := vec.Entries(); len(got) != 2 || got[0] != (profile.Entry{Item: 11, Weight: 2.5}) {
		t.Fatalf("queued profile entries = %v", got)
	}

	// Publish a staleness doc the way the engine does and read it back
	// through the endpoint.
	doc := netstore.StalenessDoc{
		LastFullEpoch: 4,
		Threshold:     0.25,
		Users:         150,
		Partitions: []netstore.PartitionStaleness{
			{Partition: 0, Adds: 3, Deletes: 1, TouchedEdges: 40, Members: 100, Score: 0.08},
			{Partition: 1, Members: 50},
		},
	}
	if err := primary.PutStaleness(netstore.EncodeStaleness(doc)); err != nil {
		t.Fatal(err)
	}
	var st api.StalenessResponse
	get(t, h, api.PathStaleness, http.StatusOK, &st)
	if st.LastFullEpoch != 4 || st.Threshold != 0.25 || st.Users != 150 || len(st.Partitions) != 2 {
		t.Fatalf("staleness = %+v", st)
	}
	if st.Partitions[0] != (api.PartitionStaleness{Partition: 0, Adds: 3, Deletes: 1, TouchedEdges: 40, Members: 100, Score: 0.08}) {
		t.Fatalf("staleness row 0 = %+v", st.Partitions[0])
	}

	// With a published id space, an upsert id absurdly far beyond it is
	// rejected up front (422) — new ids must be sequential, so it could
	// never land and would otherwise clog the engine's backlog forever.
	// The last id inside the slack window is still accepted.
	far := fmt.Sprintf("/v1/profile/%d", 150+(1<<16))
	if rec := do("PUT", far, `{"items":[{"item":1,"weight":1}]}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("far-future id = %d (%s), want 422", rec.Code, rec.Body.String())
	}
	edge := fmt.Sprintf("/v1/profile/%d", 150+(1<<16)-1)
	if rec := do("PUT", edge, `{"items":[{"item":1,"weight":1}]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("in-window id = %d (%s), want 202", rec.Code, rec.Body.String())
	}

	stats := srv.Stats()
	if row := stats.Endpoints[api.EndpointUpsert]; row.Requests != 5 || row.Errors != 3 {
		t.Fatalf("upsert row = %+v", row)
	}
	if row := stats.Endpoints[api.EndpointDelete]; row.Requests != 1 || row.Errors != 0 {
		t.Fatalf("delete row = %+v", row)
	}
	if row := stats.Endpoints[api.EndpointStaleness]; row.Requests != 2 || row.Misses != 1 {
		t.Fatalf("staleness row = %+v", row)
	}
}

// TestNewValidation: config errors surface at startup, not at first
// request.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Primaries: []string{"127.0.0.1:1"}, Replicas: []string{"a", "b"}, Partitions: 4}); err == nil {
		t.Error("replica/primary count mismatch accepted")
	}
	if _, err := New(Config{Primaries: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := New(Config{Partitions: 4}); err == nil {
		t.Error("no primaries accepted")
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"specsyn/internal/faultinject"
	"specsyn/internal/graphtest"
	"specsyn/internal/store"
)

// openStore opens the durable store at dir and closes it with the test.
func openStore(t *testing.T, dir string, fsys faultinject.FS) *store.Store {
	t.Helper()
	st, _, err := store.Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func estimateJSON(t *testing.T, ts *httptest.Server, id string) *EstimateResponse {
	t.Helper()
	var est EstimateResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/"+id+"/estimate",
		EstimateRequest{}, &est); code != http.StatusOK {
		t.Fatalf("estimate %s: status %d", id, code)
	}
	return &est
}

func searchJSON(t *testing.T, ts *httptest.Server, id string, seed int64) *SearchResponse {
	t.Helper()
	var res SearchResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/"+id+"/search",
		SearchRequest{Algo: "greedy", Seed: seed}, &res); code != http.StatusOK {
		t.Fatalf("search %s: status %d", id, code)
	}
	return &res
}

// TestCrashRecoveryBitIdentical is the tentpole pin: build and reload a
// session, "crash" (abandon the server without any drain), recover a new
// daemon from the same state directory, and require bit-identical
// estimates and search results. The reload is left dirty — journaled but
// past the last checkpoint — so recovery exercises the checkpoint
// restore plus the single incremental replay Reload.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	srv := New(Config{Store: st, CheckpointEvery: 100})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	buildDesign(t, ts, "fuzzy", "fuzzy")
	src, _ := readExample(t, "fuzzy")
	var rel ReloadResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/fuzzy/reload",
		ReloadRequest{VHDL: insertNull(t, src)}, &rel); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if rel.Empty || rel.Full {
		t.Fatalf("reload was not incremental: %+v", rel)
	}
	estBefore := estimateJSON(t, ts, "fuzzy")
	searchBefore := searchJSON(t, ts, "fuzzy", 7)
	ts.Close() // crash: no drain, no checkpoint of the dirty reload

	st2 := openStore(t, dir, nil)
	srv2 := New(Config{Store: st2})
	rep := srv2.Recover(t.Logf)
	if rep.Sessions != 1 || rep.Restored != 1 || rep.Failed != 0 {
		t.Fatalf("recover report = %+v, want 1 restored", rep)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	estAfter := estimateJSON(t, ts2, "fuzzy")
	if !reflect.DeepEqual(estBefore.Report, estAfter.Report) {
		t.Fatal("recovered session's estimate differs from the pre-crash one")
	}
	searchAfter := searchJSON(t, ts2, "fuzzy", 7)
	if searchBefore.Cost != searchAfter.Cost || searchBefore.Evals != searchAfter.Evals ||
		!reflect.DeepEqual(searchBefore.Assignment, searchAfter.Assignment) {
		t.Fatalf("recovered search differs: %+v vs %+v", searchBefore, searchAfter)
	}
	if stats := srv2.Stats(); stats.Restores != 1 || stats.Recovered != 1 {
		t.Fatalf("stats = %+v, want restores=1 recovered=1", stats)
	}
}

// TestEvictionRestore pins the LRU/persistence interplay: a session pushed
// out by the cache cap comes back from its checkpoint on the next request,
// without re-running the front end, and estimates identically.
func TestEvictionRestore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	srv := New(Config{Store: st, MaxSessions: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	buildDesign(t, ts, "a", "fuzzy")
	estBefore := estimateJSON(t, ts, "a")
	buildsBefore := srv.Stats().Builds

	buildDesign(t, ts, "b", "ans") // evicts "a", checkpointing it
	if srv.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", srv.Stats().Evictions)
	}
	if srv.cache.get("a") != nil {
		t.Fatal("a still cached")
	}

	estAfter := estimateJSON(t, ts, "a") // restore-on-miss
	if !reflect.DeepEqual(estBefore.Report, estAfter.Report) {
		t.Fatal("restored session's estimate differs")
	}
	stats := srv.Stats()
	if stats.Restores != 1 {
		t.Fatalf("restores = %d, want 1", stats.Restores)
	}
	// One build for "b", none for the restore: the front end did not run.
	if stats.Builds != buildsBefore+1 {
		t.Fatalf("builds = %d, want %d (restore must skip the front end)",
			stats.Builds, buildsBefore+1)
	}
	// Deleting the restored session removes it from store and cache alike.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/a", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Has("a") {
		t.Fatalf("delete: status %d, store has a: %v", resp.StatusCode, st.Has("a"))
	}
}

// TestReloadAfterRestore: a session restored from its checkpoint has a
// graph and a source but no front end of them. The next one-behavior
// reload parses the source once and still patches the restored graph, to
// what a fresh build of the edited source gives.
func TestReloadAfterRestore(t *testing.T) {
	st := openStore(t, t.TempDir(), nil)
	srv := New(Config{Store: st, MaxSessions: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	buildDesign(t, ts, "a", "fuzzy")
	buildDesign(t, ts, "b", "ans") // evicts "a", checkpointing it
	estimateJSON(t, ts, "a")       // restore-on-miss
	if srv.Stats().Restores != 1 {
		t.Fatalf("restores = %d, want 1", srv.Stats().Restores)
	}
	src, _ := readExample(t, "fuzzy")
	edited := insertNull(t, src)
	var resp ReloadResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/a/reload", ReloadRequest{VHDL: edited}, &resp); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if resp.Full || resp.Empty {
		t.Fatalf("one-behavior reload of a restored session: %+v", resp)
	}
	sess := srv.cache.get("a")
	if sess == nil {
		t.Fatal("a not cached after its reload")
	}
	fresh := loadEnv(t, "fuzzy")
	fresh.LoadVHDL(edited)
	if err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	sess.mu.RLock()
	got := graphtest.Bytes(t, sess.env.Graph)
	sess.mu.RUnlock()
	if !bytes.Equal(got, graphtest.Bytes(t, fresh.Graph)) {
		t.Error("reload of a restored session diverges from a fresh build")
	}
}

// TestDeleteEvictedSession pins deletion of a session that lives only in
// the store: it must 200 and purge the store, not 404.
func TestDeleteEvictedSession(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	srv := New(Config{Store: st, MaxSessions: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	buildDesign(t, ts, "a", "fuzzy")
	buildDesign(t, ts, "b", "fuzzy") // evicts "a"
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/a", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete evicted: status %d", resp.StatusCode)
	}
	if st.Has("a") {
		t.Fatal("store still has the deleted session")
	}
	// And it is really gone: lookups 404 now.
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/a/estimate",
		EstimateRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("estimate deleted: status %d, want 404", code)
	}
}

// TestReadyzAndDrain pins the readiness surface: /readyz (not /healthz)
// goes 503 during drain, data-plane requests are shed with Retry-After,
// and Drain flushes the dirty session.
func TestReadyzAndDrain(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	srv := New(Config{Store: st, CheckpointEvery: 100, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}

	buildDesign(t, ts, "fuzzy", "fuzzy")
	src, _ := readExample(t, "fuzzy")
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/reload",
		ReloadRequest{VHDL: insertNull(t, src)}, nil); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}

	srv.BeginDrain()
	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("/readyz during drain: %d, Retry-After %q",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: %d (liveness must not flap)", resp.StatusCode)
	}
	resp, err := c.Post(ts.URL+"/v1/designs/fuzzy/estimate", "application/json",
		bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("shed request: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	rep := srv.Drain(context.Background())
	if rep.Dirty != 1 || rep.Flushed != 1 || rep.Errors != 0 {
		t.Fatalf("drain report = %+v", rep)
	}
	// After the flush, the checkpoint covers the journal tip: a recovery
	// needs no front-end work at all.
	st2 := openStore(t, dir, nil)
	sd, err := st2.Load("fuzzy")
	if err != nil || sd.Ckpt == nil || sd.Ckpt.VHDL != sd.VHDL {
		t.Fatalf("post-drain store: %+v (ckpt %+v), %v", sd, sd.Ckpt, err)
	}
}

// TestStoreFaultsDegradeGracefully pins availability-over-durability:
// injected store failures surface in the store_errors counter but every
// serving request still succeeds.
func TestStoreFaultsDegradeGracefully(t *testing.T) {
	dir := t.TempDir()
	// Fail every journal write after the first two appends (build lands,
	// later reloads do not).
	cfs := faultinject.NewChaosFS(nil, faultinject.FSPlan{FailWriteAt: 4, EveryWrite: 1})
	st := openStore(t, dir, cfs)
	srv := New(Config{Store: st, CheckpointEvery: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	buildDesign(t, ts, "fuzzy", "fuzzy")
	src, _ := readExample(t, "fuzzy")
	for i := 0; i < 3; i++ {
		edited := insertNull(t, src)
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/fuzzy/reload",
			ReloadRequest{VHDL: edited}, nil); code != http.StatusOK {
			t.Fatalf("reload %d under store faults: status %d", i, code)
		}
		src = edited
	}
	if estimateJSON(t, ts, "fuzzy") == nil {
		t.Fatal("estimate failed")
	}
	if stats := srv.Stats(); stats.StoreErrors == 0 {
		t.Fatal("injected store failures not counted")
	}
}

// TestConcurrentCheckpointEviction hammers one session with concurrent
// reloads, explicit checkpoints and eviction-triggered flushes; the store
// must come out decodable and at a consistent sequence. Run under -race
// this also proves the locking discipline.
func TestConcurrentCheckpointEviction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	srv := New(Config{Store: st, MaxSessions: 1, CheckpointEvery: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	buildDesign(t, ts, "a", "fuzzy")
	sess := srv.cache.get("a")
	src, _ := readExample(t, "fuzzy")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				srv.checkpoint(sess)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		edited := src
		for i := 0; i < 3; i++ {
			edited = insertNull(t, edited)
			postJSON(t, ts.Client(), ts.URL+"/v1/designs/a/reload", ReloadRequest{VHDL: edited}, nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Evictions while checkpoints are in flight: build other sessions
		// into a cap-1 cache.
		buildDesign(t, ts, "b", "ans")
		buildDesign(t, ts, "c", "fuzzy")
	}()
	wg.Wait()

	srv.Drain(context.Background())
	st2 := openStore(t, dir, nil)
	for _, id := range st2.Sessions() {
		sd, err := st2.Load(id)
		if err != nil || sd.Ckpt == nil {
			t.Fatalf("session %q after chaos: %+v, %v", id, sd, err)
		}
		if sd.Ckpt.VHDL != sd.VHDL {
			t.Fatalf("session %q checkpoint lags the journal after drain", id)
		}
	}
}

// TestRecoverGatesRequests pins the not-ready gate: while recovery is
// replaying, data-plane requests and /readyz answer 503.
func TestRecoverGatesRequests(t *testing.T) {
	srv := New(Config{})
	srv.ready.Store(false) // as Recover does for the replay window
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while recovering: %d", resp.StatusCode)
	}
	var body bytes.Buffer
	body.WriteString(`{"vhdl":"x"}`)
	resp, err = ts.Client().Post(ts.URL+"/v1/designs/x/build", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("build while recovering: %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("shed response body: %v (%+v)", err, eb)
	}
}

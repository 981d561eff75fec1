package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specsyn/internal/faultinject"
	"specsyn/internal/specsyn"
	"specsyn/internal/store"
	"specsyn/internal/vhdl"
)

var testdata = filepath.Join("..", "..", "testdata")

func readExample(t testing.TB, name string) (vhdlSrc, prob string) {
	t.Helper()
	v, err := os.ReadFile(filepath.Join(testdata, name+".vhd"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := os.ReadFile(filepath.Join(testdata, name+".prob"))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), string(p)
}

// postJSON sends one request and decodes the response into out (unless
// out is nil), returning the status code.
func postJSON(t testing.TB, client *http.Client, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func buildDesign(t testing.TB, ts *httptest.Server, id, name string) {
	t.Helper()
	src, prob := readExample(t, name)
	var resp BuildResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/"+id+"/build",
		BuildRequest{VHDL: src, Profile: prob}, &resp); code != http.StatusOK {
		t.Fatalf("build %s: status %d", id, code)
	}
	if resp.BV == 0 || resp.Procs == 0 || resp.Buses == 0 {
		t.Fatalf("build %s: empty response %+v", id, resp)
	}
}

// insertNull returns src with a null statement prepended to the body of
// its first process — the canonical one-behavior edit.
func insertNull(t testing.TB, src string) string {
	t.Helper()
	df := vhdl.MustParse(src)
	ps := df.Architectures[0].Processes[0]
	ps.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, ps.Body...)
	return vhdl.Format(df)
}

// TestServerLifecycle walks one session through every endpoint: build,
// estimate, search, reload (empty and incremental), explore, list, stats,
// delete.
func TestServerLifecycle(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := ts.Client()
	buildDesign(t, ts, "fuzzy", "fuzzy")

	var est EstimateResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/estimate", EstimateRequest{}, &est); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	if len(est.Report.Comps) == 0 || len(est.Report.Processes) == 0 {
		t.Fatalf("estimate: empty report %+v", est)
	}

	var moved EstimateResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/estimate",
		EstimateRequest{Assign: map[string]string{"evaluaterule": "asic"}}, &moved); code != http.StatusOK {
		t.Fatalf("estimate with assign: status %d", code)
	}
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/estimate",
		EstimateRequest{Assign: map[string]string{"nonesuch": "asic"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("estimate with bad node: status %d, want 400", code)
	}

	var search SearchResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/search",
		SearchRequest{Algo: "greedy", Seed: 1}, &search); code != http.StatusOK {
		t.Fatalf("search: status %d", code)
	}
	if search.Evals == 0 || len(search.Assignment) == 0 {
		t.Fatalf("search: empty result %+v", search)
	}

	// Determinism through the API: same seed, same cost.
	var again SearchResponse
	postJSON(t, c, ts.URL+"/v1/designs/fuzzy/search", SearchRequest{Algo: "greedy", Seed: 1}, &again)
	if again.Cost != search.Cost {
		t.Errorf("same-seed search diverged: %v vs %v", again.Cost, search.Cost)
	}

	src, _ := readExample(t, "fuzzy")
	var rel ReloadResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/reload",
		ReloadRequest{VHDL: "-- comment\n" + src}, &rel); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if !rel.Empty {
		t.Errorf("comment edit reported non-empty delta: %+v", rel)
	}
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/reload",
		ReloadRequest{VHDL: insertNull(t, src)}, &rel); code != http.StatusOK {
		t.Fatalf("incremental reload: status %d", code)
	}
	if rel.Empty || rel.Full || len(rel.Changed) == 0 {
		t.Errorf("one-behavior edit: delta %+v", rel)
	}

	var exp ExploreResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/explore",
		ExploreRequest{Legs: 4, MaxEvals: 5000, Seed: 7}, &exp); code != http.StatusOK {
		t.Fatalf("explore: status %d", code)
	}
	if exp.LegsPlanned != 4 || exp.Evals == 0 {
		t.Fatalf("explore: %+v", exp)
	}

	resp, err := c.Get(ts.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].ID != "fuzzy" {
		t.Fatalf("list: %+v", infos)
	}

	resp, err = c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Sessions != 1 || stats.Evals == 0 || stats.Failures != 0 || stats.Panics != 0 {
		t.Fatalf("stats: %+v", stats)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/fuzzy", nil)
	dresp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/estimate", EstimateRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("estimate after delete: status %d, want 404", code)
	}
}

// TestServerAdaptiveExplore drives the adaptive portfolio through the
// API: the response carries rounds and a monotone anytime curve, repeat
// requests at the same seed are identical, and the orchestrator counters
// reach /v1/stats.
func TestServerAdaptiveExplore(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := ts.Client()
	buildDesign(t, ts, "fuzzy", "fuzzy")

	req := ExploreRequest{Algo: "portfolio", Legs: 5, Seed: 7, MaxEvals: 4000,
		RoundEvals: 128, MaxRounds: 4, KillMargin: 0.05, Share: true}
	var exp ExploreResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/explore", req, &exp); code != http.StatusOK {
		t.Fatalf("adaptive explore: status %d", code)
	}
	if exp.Rounds == 0 || len(exp.Curve) != exp.Rounds {
		t.Fatalf("adaptive explore: rounds %d, curve %d points", exp.Rounds, len(exp.Curve))
	}
	for i := 1; i < len(exp.Curve); i++ {
		if exp.Curve[i].BestCost > exp.Curve[i-1].BestCost {
			t.Errorf("anytime curve not monotone at round %d", i)
		}
	}
	if len(exp.Assignment) == 0 {
		t.Fatal("adaptive explore: empty assignment")
	}

	var again ExploreResponse
	postJSON(t, c, ts.URL+"/v1/designs/fuzzy/explore", req, &again)
	if again.Cost != exp.Cost || again.Rounds != exp.Rounds ||
		again.LegsKilled != exp.LegsKilled || again.LegsRespawned != exp.LegsRespawned {
		t.Errorf("same-seed adaptive explore diverged: %+v vs %+v", again, exp)
	}

	resp, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Rounds != int64(exp.Rounds+again.Rounds) {
		t.Errorf("stats rounds %d, want %d", stats.Rounds, exp.Rounds+again.Rounds)
	}
	if stats.LegsKilled != int64(exp.LegsKilled+again.LegsKilled) ||
		stats.LegsRespawned != int64(exp.LegsRespawned+again.LegsRespawned) {
		t.Errorf("stats kill/respawn counters drifted: %+v", stats)
	}
}

// TestServerDeepNesting: a build body nested far past the parser's limit
// — 1 MB of open parentheses — gets a 422 with the positioned diagnostic
// instead of overflowing the stack, and the daemon keeps serving.
func TestServerDeepNesting(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	src := "entity E is end; architecture x of E is begin P: process variable v : integer; begin v := " +
		strings.Repeat("(", 1<<20) + "1;"
	body, err := json.Marshal(BuildRequest{VHDL: src})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/designs/deep/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "nesting deeper than") {
		t.Fatalf("deep build: status %d, body %.300s; want 422 with the nesting diagnostic", resp.StatusCode, msg)
	}
	buildDesign(t, ts, "fuzzy", "fuzzy")
}

// TestServerErrorFlood: a body as large as the server reads, made of
// nothing but syntax errors, is refused with a short 422 that ends with
// "too many errors", and the server keeps serving.
func TestServerErrorFlood(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body, err := json.Marshal(BuildRequest{VHDL: strings.Repeat(";", 16<<20-64)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/designs/flood/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "too many errors") || len(msg) > 16<<10 {
		t.Fatalf("flood build: status %d, %d-byte body %.300s; want a short 422 ending the diagnostics early",
			resp.StatusCode, len(msg), msg)
	}
	buildDesign(t, ts, "fuzzy", "fuzzy")
}

// deepLoops is one process nesting depth two-billion-trip loops around
// one assignment.
func deepLoops(depth int) string {
	var b strings.Builder
	b.WriteString("entity E is end;\narchitecture x of E is begin\nP: process\nvariable v : integer;\nbegin\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "for i%d in 1 to 2000000000 loop\n", i)
	}
	b.WriteString("v := v + 1;\n")
	b.WriteString(strings.Repeat("end loop;\n", depth))
	b.WriteString("wait;\nend process;\nend;\n")
	return b.String()
}

// TestServerNonFiniteEstimate: 33 nested two-billion-trip loops build
// fine, since every annotation is finite, but the bus bitrate overflows
// to +Inf, which JSON cannot carry. The estimate must not answer 2xx with
// an undecodable body; it is a counted server failure.
func TestServerNonFiniteEstimate(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/designs/deep/build", BuildRequest{VHDL: deepLoops(33)}, nil); code != http.StatusOK {
		t.Fatalf("build: status %d", code)
	}
	before := s0(ts, t).Failures
	resp, err := ts.Client().Post(ts.URL+"/v1/designs/deep/estimate", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 == 2 && !json.Valid(body) {
		t.Fatalf("estimate: status %d with undecodable body %q", resp.StatusCode, body)
	}
	if after := s0(ts, t).Failures; after <= before {
		t.Errorf("estimate of a non-finite report: status %d, failures %d -> %d, want a counted failure",
			resp.StatusCode, before, after)
	}
}

// TestServerNonFiniteBuild: at 34 nested two-billion-trip loops the
// channel's access frequency, (2e9)^34, overflows to +Inf. The build
// refuses the non-finite annotation with a 422 that names its position
// in the source, and counts no server failure.
func TestServerNonFiniteBuild(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body, _ := json.Marshal(BuildRequest{VHDL: deepLoops(34)})
	resp, err := ts.Client().Post(ts.URL+"/v1/designs/deep/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "3:4: slif: channel p->v") ||
		!strings.Contains(e.Error, "non-finite") {
		t.Fatalf("build of a non-finite annotation: status %d, error %q; want 422 naming 3:4 and the channel", resp.StatusCode, e.Error)
	}
	if st := s0(ts, t); st.Failures != 0 {
		t.Errorf("refused build counted as a server failure: %+v", st)
	}
}

// TestServerExploreBounds: explore bodies whose leg or round count would
// make the daemon allocate without bound, or whose round_evals would
// overrun the evaluation budget, get a quick 400 that names the limits,
// and the daemon keeps serving. Legs default to workers, so a
// workers-only request keeps its leg count when workers is clamped to the
// host's cores: the result does not depend on the host.
func TestServerExploreBounds(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := ts.Client()
	buildDesign(t, ts, "a", "fuzzy")
	url := ts.URL + "/v1/designs/a/explore"
	for _, body := range []string{
		`{"workers": 1073741824, "max_evals": 100}`,
		`{"legs": 1073741824, "max_evals": 100}`,
		`{"legs": 4, "max_rounds": 1073741824, "max_evals": 100}`,
		`{"legs": 4, "round_evals": 4611686018427387904, "max_rounds": 2, "max_evals": 100, "timeout_ms": 3000}`,
		`{"adaptive": true}`, // removed field: unknown fields are rejected
	} {
		start := time.Now()
		resp, err := c.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(body, "adaptive") && !strings.Contains(string(msg), fmt.Sprint(specsyn.LegLimit)) {
			t.Errorf("%s: error %s does not name the limits", body, msg)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: rejected after %v", body, d)
		}
	}

	var byWorkers, byLegs ExploreResponse
	if code := postJSON(t, c, url, ExploreRequest{Workers: 16, Seed: 7, MaxEvals: 2000}, &byWorkers); code != http.StatusOK {
		t.Fatalf("workers-only explore: status %d", code)
	}
	if code := postJSON(t, c, url, ExploreRequest{Legs: 16, Workers: 1, Seed: 7, MaxEvals: 2000}, &byLegs); code != http.StatusOK {
		t.Fatalf("16-leg explore: status %d", code)
	}
	if byWorkers.LegsPlanned != 16 || byWorkers.Cost != byLegs.Cost || byWorkers.BestLeg != byLegs.BestLeg || byWorkers.Evals != byLegs.Evals {
		t.Errorf("workers-only explore %+v differs from the 16-leg explore %+v", byWorkers, byLegs)
	}
	buildDesign(t, ts, "fuzzy", "fuzzy")
}

// TestServerBadInput checks the input-validation edges: broken VHDL, bad
// JSON, missing sessions, bad reloads that must not corrupt the session.
func TestServerBadInput(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := ts.Client()

	if code := postJSON(t, c, ts.URL+"/v1/designs/x/build",
		BuildRequest{VHDL: "entity broken is"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("broken build: status %d, want 422", code)
	}
	if code := postJSON(t, c, ts.URL+"/v1/designs/x/estimate", EstimateRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("estimate without session: status %d, want 404", code)
	}
	resp, err := c.Post(ts.URL+"/v1/designs/x/build", "application/json", strings.NewReader("{broken json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", resp.StatusCode)
	}

	// A failed reload must leave the session serving its previous graph.
	buildDesign(t, ts, "ans", "ans")
	if code := postJSON(t, c, ts.URL+"/v1/designs/ans/reload",
		ReloadRequest{VHDL: "entity broken is"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("broken reload: status %d, want 422", code)
	}
	if code := postJSON(t, c, ts.URL+"/v1/designs/ans/estimate", EstimateRequest{}, nil); code != http.StatusOK {
		t.Fatalf("estimate after failed reload: status %d", code)
	}

	var stats Stats
	resp, err = c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Failures != 0 {
		t.Errorf("client errors were counted as failures: %+v", stats)
	}
	if stats.ClientErrs == 0 {
		t.Errorf("no client errors recorded: %+v", stats)
	}
}

// TestServerSearchBudgetAndDeadline checks that request budgets flow into
// the ctx-first search APIs: a tiny eval budget yields a partial result,
// and a server-side MaxEvals cap binds even when the request asks for more.
func TestServerSearchBudgetAndDeadline(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxEvals: 50}))
	defer ts.Close()
	c := ts.Client()
	buildDesign(t, ts, "fuzzy", "fuzzy")

	var res SearchResponse
	if code := postJSON(t, c, ts.URL+"/v1/designs/fuzzy/search",
		SearchRequest{Algo: "random", Iters: 100000, MaxEvals: 1000000}, &res); code != http.StatusOK {
		t.Fatalf("budgeted search: status %d", code)
	}
	// The server cap (50) must bind despite the request asking for 1e6.
	// The budget runner may spend one grace eval past the cap.
	if res.Evals > 51 {
		t.Fatalf("server MaxEvals cap did not bind: %d evals", res.Evals)
	}
	if !res.Partial {
		t.Errorf("capped search not marked partial: %+v", res)
	}
}

// TestServerPanicContainment drives a panicking handler through the
// containment middleware: 500 out, panic counted, daemon still serving.
func TestServerPanicContainment(t *testing.T) {
	s := New(Config{})
	s.mux.HandleFunc("GET /boom", s.contained(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic: status %d, want 500", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("kaboom")) {
		t.Errorf("panic response does not name the panic: %s", body)
	}
	if st := s.Stats(); st.Panics != 1 || st.Failures != 1 {
		t.Errorf("panic not counted: %+v", st)
	}

	// The daemon is still alive and serving.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", hresp.StatusCode)
	}
}

// TestServerHealthz pins the liveness endpoint.
func TestServerHealthz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// postRetry posts in and drains the answer, retrying a load-shed 503 with
// bounded exponential backoff. The wait stays below the server's
// one-second Retry-After hint so a shedding run stays short. It reports
// errors rather than failing the test, so client goroutines can call it.
func postRetry(client *http.Client, url string, in any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || attempt == 8 {
			return resp.StatusCode, nil
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, 200*time.Millisecond)
	}
}

// TestServerConcurrentMixedTraffic hammers one server with concurrent
// clients round-robining over three designs with a mixed stream: half
// estimates, then greedy searches, a multi-leg explore, and reloads that
// alternate between an edited and the original source, so a reload is a
// real incremental rebuild under reader pressure. Every request must
// answer 200 and the server must count no failure and no panic. Run under
// -race this doubles as the session locking proof at the HTTP layer.
//
// The chaos case runs the same load against a durable store on a
// misbehaving disk (a torn write, then every 9th write failing, a failed
// sync, a stall every 5th I/O) with one slot and a one-deep queue per
// session, so colliding clients are shed and must retry. It then crashes
// the server by abandoning the store unclosed, recovers a new server from
// the directory, and requires every recovered session to estimate.
func TestServerConcurrentMixedTraffic(t *testing.T) {
	designs := []string{"ans", "fuzzy", "vol"}
	for _, tc := range []struct {
		name              string
		clients, requests int
		chaos             bool
	}{
		{"mixed", 8, 20, false},
		{"chaos", 6, 15, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				MaxSessions:  16,
				SessionSlots: tc.clients,
				SessionQueue: 4 * tc.clients,
				MaxEvals:     200_000,
			}
			var dir string
			if tc.chaos {
				dir = t.TempDir()
				cfs := faultinject.NewChaosFS(nil, faultinject.FSPlan{
					TornWriteAt: 6,
					FailWriteAt: 9, EveryWrite: 9,
					FailSyncAt: 7,
					Delay:      200 * time.Microsecond, DelayEvery: 5,
				})
				st, _, err := store.Open(dir, cfs)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store, cfg.CheckpointEvery = st, 2
				cfg.SessionSlots, cfg.SessionQueue = 1, 1
			}
			ts := httptest.NewServer(New(cfg))
			defer ts.Close()
			c := ts.Client()

			orig := make(map[string]string, len(designs))
			edited := make(map[string]string, len(designs))
			for _, name := range designs {
				src, prob := readExample(t, name)
				req := BuildRequest{VHDL: src, Profile: prob}
				if name == "fuzzy" {
					ov, err := os.ReadFile(filepath.Join(testdata, "fuzzy.ov"))
					if err != nil {
						t.Fatal(err)
					}
					req.Overrides = string(ov)
				}
				if code, err := postRetry(c, ts.URL+"/v1/designs/"+name+"/build", req); err != nil || code != http.StatusOK {
					t.Fatalf("build %s: status %d, err %v", name, code, err)
				}
				orig[name], edited[name] = src, insertNull(t, src)
			}

			errc := make(chan error, tc.clients)
			for i := 0; i < tc.clients; i++ {
				go func(i int) {
					for j := 0; j < tc.requests; j++ {
						id := designs[(i+j)%len(designs)]
						url := ts.URL + "/v1/designs/" + id
						seed := int64(i*1000 + j)
						var in any
						switch j % 10 {
						case 0, 1, 2, 3, 4:
							url, in = url+"/estimate", EstimateRequest{}
						case 5, 6:
							url, in = url+"/search", SearchRequest{Algo: "greedy", Seed: seed}
						case 7:
							url, in = url+"/explore", ExploreRequest{Algo: "multi", Legs: 4, Seed: seed, MaxEvals: 4000}
						default:
							src := edited[id]
							if j%4 == 1 {
								src = orig[id]
							}
							url, in = url+"/reload", ReloadRequest{VHDL: src}
						}
						if code, err := postRetry(c, url, in); err != nil || code != http.StatusOK {
							errc <- fmt.Errorf("client %d op %d (%s): status %d, err %v", i, j, url, code, err)
							return
						}
					}
					errc <- nil
				}(i)
			}
			for i := 0; i < tc.clients; i++ {
				if err := <-errc; err != nil {
					t.Error(err)
				}
			}
			st := s0(ts, t)
			t.Logf("%d requests: %d evals, %d shed, %d store errors, %d checkpoints",
				tc.clients*tc.requests, st.Evals, st.Rejects, st.StoreErrors, st.Checkpoints)
			if st.Failures != 0 || st.Panics != 0 || (!tc.chaos && st.Rejects != 0) {
				t.Errorf("mixed traffic left failures: %+v", st)
			}
			if !tc.chaos {
				return
			}

			// Crash: no drain, no flush; the first store is never closed.
			ts.Close()
			st2 := openStore(t, dir, nil)
			srv2 := New(Config{MaxSessions: 16, MaxEvals: 200_000, Store: st2})
			rep := srv2.Recover(t.Logf)
			if rep.Failed != 0 || rep.Sessions == 0 {
				t.Fatalf("recover report = %+v, want sessions and no failure", rep)
			}
			t.Logf("recovered %+v", rep)
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			for _, id := range st2.Sessions() {
				if code, err := postRetry(ts2.Client(), ts2.URL+"/v1/designs/"+id+"/estimate", EstimateRequest{}); err != nil || code != http.StatusOK {
					t.Errorf("recovered session %s: estimate status %d, err %v", id, code, err)
				}
			}
			if st := s0(ts2, t); st.Failures != 0 || st.Panics != 0 {
				t.Errorf("recovered server left failures: %+v", st)
			}
		})
	}
}

func s0(ts *httptest.Server, t *testing.T) Stats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specsyn/internal/estimate"
	"specsyn/internal/faultinject"
	"specsyn/internal/serve"
	"specsyn/internal/specsyn"
	"specsyn/internal/store"
)

// serveOpen is the serve-open workload: daemon traffic, many readers beside
// a journaled writer. One generator sends seeded Poisson arrivals over
// nproc connections to an in-process daemon with a durable store; latency
// counts from each request's due time, so client-side queueing counts.
// Throughput is counted per second of the process's CPU time. It is the
// only workload that exercises the daemon and the store, and the only one
// where reloads contend with estimates.
type serveOpen struct {
	cfg   config
	subs  []subject
	nodes [][]string // per design: node names an estimate may move to the ASIC
	size  [2]int     // behaviors+variables and channels over all designs

	dir     string
	fs      *countingFS
	st      *store.Store
	handler *timedHandler
	ts      *httptest.Server
	clients []*http.Client

	mix     *mix
	nominal []request // the open-loop schedule
	nextNom int       // first unsent entry of nominal
	warmed  bool

	// What the correctness checks need: every reload and every sampled
	// estimate, with the interval it was in flight.
	events  [][]reloadEvent // per design
	samples []sampleEvent
	initial []string // per design: the source built in setup
}

var serveSubjects = []string{"ans", "ether", "fuzzy", "vol", "syn-p32"}

const (
	nominalRPS     = 100 // the open loop's arrival rate
	estimateSample = 100 // one estimate in this many is checked against the mirror
	spanHeader     = "X-Bench-Span"
)

func (w *serveOpen) params() map[string]any {
	p := map[string]any{"designs": serveSubjects, "nominal_rps": nominalRPS,
		"connections": runtime.NumCPU(),
		"mix":         "60% estimate, 20% greedy search, 10% explore (multi, 2 legs, 4000 evals), 10% reload",
		"phases":      "warm-up min(1 s, 10%), then the measured stretch, open loop at nominal_rps",
		"store_sync":  "counted, not performed"}
	if w.dir != "" {
		p["store_fs"] = fsKind(w.dir)
	}
	return p
}

// request is one generated request.
type request struct {
	due    time.Duration // open loop: offset from the schedule's start
	route  string        // estimate, search, explore or reload
	design int
	body   []byte
	sample bool // estimate: compared with the mirror
}

type reloadEvent struct {
	sent, recv time.Time
	body       []byte // the ReloadRequest
}

type sampleEvent struct {
	design     int
	sent, recv time.Time
	body       []byte // the EstimateRequest
	report     json.RawMessage
}

// reqResult is one completed request.
type reqResult struct {
	ok         bool
	due        time.Time
	sent, recv time.Time
	handler    int64 // the handler's span id, in a traced run
	body       []byte
}

func (w *serveOpen) setup(tr *tracer) error {
	w.close()
	subs, err := loadSubjects(w.cfg.testdata, serveSubjects)
	if err != nil {
		return err
	}
	w.subs = subs
	w.dir, err = os.MkdirTemp("", "bench-store-")
	if err != nil {
		return err
	}
	w.fs = &countingFS{}
	var st *store.Store
	st, _, err = store.Open(w.dir, w.fs)
	if err != nil {
		return err
	}
	w.st = st
	w.handler = &timedHandler{h: serve.New(serve.Config{Store: st, MaxEvals: 200_000})}
	w.ts = httptest.NewServer(w.handler)
	w.clients = make([]*http.Client, runtime.NumCPU())
	for i := range w.clients {
		w.clients[i] = &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
	}

	w.nodes = make([][]string, len(subs))
	w.size = [2]int{}
	w.initial = make([]string, len(subs))
	w.events = make([][]reloadEvent, len(subs))
	w.samples = nil
	rings := make([][][]byte, len(subs))
	for i, s := range subs {
		ed, err := newEditor(s.name, s.src, subSeed(w.cfg.seed, i))
		if err != nil {
			return err
		}
		w.initial[i] = ed.source()
		req := serve.BuildRequest{VHDL: w.initial[i], Profile: s.prob, Library: s.lib, Overrides: s.ov}
		if code, body, err := w.post(w.clients[0], s.name, "build", mustJSON(req)); err != nil || code != http.StatusOK {
			return fmt.Errorf("build %s: status %d, %v: %s", s.name, code, err, body)
		}
		// The mirror of the initial source, which also names the nodes
		// estimates may move.
		sp := tr.op("setup.build")
		env, err := w.mirror(i, w.initial[i], sp)
		sp.end()
		if err != nil {
			return err
		}
		for _, n := range env.Graph.Nodes {
			w.nodes[i] = append(w.nodes[i], n.Name)
		}
		st := env.Graph.Stats()
		w.size[0], w.size[1] = w.size[0]+st.BV, w.size[1]+st.Channels
		for k := 0; k < reloadRing; k++ {
			src, _ := ed.next()
			rings[i] = append(rings[i], mustJSON(serve.ReloadRequest{VHDL: src}))
		}
	}

	// The open-loop schedule: Poisson arrivals covering the warm-up and
	// every measured stretch.
	w.mix = &mix{rng: rand.New(rand.NewSource(w.cfg.seed)), nodes: w.nodes, rings: rings, pos: make([]int, len(subs))}
	w.nominal = w.mix.schedule(w.cfg.seconds + 2)
	w.nextNom, w.warmed = 0, false
	return nil
}

// reloadRing is how many successive edits of each design the reloads
// cycle through. Every source in the ring is distinct and the ring is
// longer than the program's front-end cache, so a reload never finds its
// source cached.
const reloadRing = 16

// mix draws the seeded request stream. Requests come from shuffled decks
// that each hold every (route slot, design) pair once, so every 50
// requests carry the mix's exact proportions over every design; drawing
// each request independently let the share of costly requests swing from
// seed to seed, and the tail with it.
type mix struct {
	rng   *rand.Rand
	nodes [][]string // per design: node names an estimate may move
	rings [][][]byte // per design: reload bodies along the design's edit chain
	pos   []int      // per design: the next ring entry
	deck  []request  // what is left of the current deck
}

// mixRoutes are the deck's route slots: 60% estimates, 20% greedy
// searches, 10% explores and 10% reloads.
var mixRoutes = []string{"estimate", "estimate", "estimate", "estimate", "estimate", "estimate",
	"search", "search", "explore", "reload"}

// schedule draws Poisson arrivals at nominalRPS for horizon seconds.
func (x *mix) schedule(horizon float64) []request {
	var out []request
	for t := 0.0; ; {
		t += x.rng.ExpFloat64() / nominalRPS
		if t > horizon {
			return out
		}
		r := x.draw()
		r.due = time.Duration(t * float64(time.Second))
		out = append(out, r)
	}
}

// draw returns the next request: an estimate moves 0 to 3 nodes to the
// ASIC, a search is greedy, an explore runs the multi engine.
func (x *mix) draw() request {
	if len(x.deck) == 0 {
		for _, route := range mixRoutes {
			for d := range x.nodes {
				x.deck = append(x.deck, request{route: route, design: d})
			}
		}
		x.rng.Shuffle(len(x.deck), func(i, j int) { x.deck[i], x.deck[j] = x.deck[j], x.deck[i] })
	}
	r := x.deck[0]
	x.deck = x.deck[1:]
	d := r.design
	switch r.route {
	case "estimate":
		assign := map[string]string{}
		for n := x.rng.Intn(4); n > 0; n-- {
			assign[x.nodes[d][x.rng.Intn(len(x.nodes[d]))]] = "asic"
		}
		r.body = mustJSON(serve.EstimateRequest{Assign: assign})
		r.sample = x.rng.Intn(estimateSample) == 0
	case "search":
		r.body = mustJSON(serve.SearchRequest{Algo: "greedy", Seed: x.rng.Int63n(1 << 30)})
	case "explore":
		r.body = mustJSON(serve.ExploreRequest{Algo: "multi", Legs: 2, MaxEvals: 4000, Seed: x.rng.Int63n(1 << 30)})
	default:
		r.body = x.rings[d][x.pos[d]%len(x.rings[d])]
		x.pos[d]++
	}
	return r
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return data
}

func (w *serveOpen) post(c *http.Client, design, route string, body []byte) (int, []byte, error) {
	resp, err := c.Post(w.ts.URL+"/v1/designs/"+design+"/"+route, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// mirror builds a fresh in-process session of design i at src: the
// reference the daemon's answers are compared with.
func (w *serveOpen) mirror(i int, src string, parent spanRef) (*specsyn.Env, error) {
	env, err := w.subs[i].newEnv(src)
	if err != nil {
		return nil, err
	}
	tokens := 0
	if parent.t != nil {
		tokens = tokenCount(src)
	}
	if err := buildEnv(env, parent, tokens); err != nil {
		return nil, fmt.Errorf("mirror %s: %w", w.subs[i].name, err)
	}
	return env, nil
}

func (w *serveOpen) close() {
	if w.ts != nil {
		for _, c := range w.clients {
			c.CloseIdleConnections()
		}
		w.ts.Close()
		w.ts = nil
	}
	if w.st != nil {
		_ = w.st.Close() // the run is over; nothing reads the store again
		w.st = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // a leftover directory under the build tree is harmless
		w.dir = ""
	}
}

// measure runs one measured stretch of the open loop at the nominal rate.
// The first stretch is preceded by an unrecorded warm-up.
func (w *serveOpen) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	if !w.warmed {
		w.warmed = true
		warm := w.takeNominal(min(time.Second, d/10))
		res, _, _ := w.openLoop(warm, nil)
		w.record(warm, res, &phase{}) // the checks need its reloads and samples
	}
	w.handler.tr.Store(tr)
	defer w.handler.tr.Store(nil)
	stop := w.pollQueueDepth(tr)
	syncs0, kb0, ren0 := w.fs.syncs.Load(), w.fs.written.Load(), w.fs.renames.Load()

	reqs := w.takeNominal(d)
	cpu0 := cpuSeconds()
	results, lag, backlog := w.openLoop(reqs, tr)
	cpu := cpuSeconds() - cpu0
	qmax := stop()

	var lat []float64
	byRoute := map[string][]float64{}
	for i, r := range results {
		ph.attempted++
		if !r.ok {
			ph.failed++
			continue
		}
		ms := float64(r.recv.Sub(r.due).Nanoseconds()) / 1e6
		lat = append(lat, ms)
		byRoute[reqs[i].route] = append(byRoute[reqs[i].route], ms)
	}
	estUs := make([]float64, len(byRoute["estimate"]))
	for i, v := range byRoute["estimate"] {
		estUs[i] = v * 1000
	}
	ph.e2e = []metric{
		pooledMetric("op_p50_ms", "ms", lat, 0.5),
		pooledMetric("tail_ms", "ms", lat, 0.95),
		m("ops_per_s", "1/s", float64(len(lat))/cpu),
		pooledMetric("estimate_p50_us", "us", estUs, 0.5),
	}
	for _, route := range sortedKeys(byRoute) {
		ph.detail = append(ph.detail, pooledMetric("req_ms."+route, "ms", byRoute[route], 0.5))
	}
	late := 0
	for _, l := range lag {
		if l > 1 {
			late++
		}
	}
	ph.detail = append(ph.detail, pooledMetric("loadgen.lag_ms", "ms", lag, 0.99))

	w.record(reqs, results, ph)
	if tr != nil {
		w.layerDetail(reqs, results, tr, ph)
	}
	stats, err := w.stats()
	if err != nil {
		ph.problem("stats: %v", err)
	}
	ph.counts = append(ph.counts,
		m("core.nodes", "count", float64(w.size[0])), m("core.channels", "count", float64(w.size[1])),
		m("serve.queue_depth_max", "count", float64(qmax)),
		m("serve.rejects", "count", float64(stats.Rejects)),
		m("serve.checkpoints", "count", float64(stats.Checkpoints)),
		m("serve.store_errors", "count", float64(stats.StoreErrors)),
		m("store.syncs", "count", float64(w.fs.syncs.Load()-syncs0)),
		m("store.write_kb", "KB", float64(w.fs.written.Load()-kb0)/1024),
		m("store.renames", "count", float64(w.fs.renames.Load()-ren0)),
		m("loadgen.backlog_max", "count", float64(backlog)),
		m("loadgen.late_frac", "frac", float64(late)/float64(max(len(lag), 1))),
	)
	return ph
}

// takeNominal returns the next stretch of the open-loop schedule, rebased
// so its first due time is measured from the stretch's start.
func (w *serveOpen) takeNominal(d time.Duration) []request {
	if w.nextNom >= len(w.nominal) {
		return nil
	}
	base := w.nominal[w.nextNom].due
	end := w.nextNom
	for end < len(w.nominal) && w.nominal[end].due-base < d {
		end++
	}
	out := append([]request(nil), w.nominal[w.nextNom:end]...)
	for i := range out {
		out[i].due -= base
	}
	w.nextNom = end
	return out
}

// openLoop sends each request at its due time from one generator, over
// the connections; a request waits in the queue while every connection is
// busy. It returns the results, how late the generator released each
// request (ms), and the longest queue.
func (w *serveOpen) openLoop(reqs []request, tr *tracer) ([]reqResult, []float64, int) {
	results := make([]reqResult, len(reqs))
	queue := make(chan int, len(reqs)) // holds the whole schedule: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				results[i] = w.do(c, &reqs[i], start.Add(reqs[i].due), tr)
			}
		}(c)
	}
	lag := make([]float64, 0, len(reqs))
	backlog := 0
	for i := range reqs {
		due := start.Add(reqs[i].due)
		waitUntil(due)
		lag = append(lag, float64(time.Since(due).Nanoseconds())/1e6)
		queue <- i
		backlog = max(backlog, len(queue))
	}
	close(queue)
	wg.Wait()
	return results, lag, backlog
}

// spinWindow is how close to a due time the generator stops sleeping and
// yields in a loop instead: the runtime rounds shorter sleeps up to about
// a millisecond, which would add the timer's error to every latency.
const spinWindow = 400 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t); d > time.Millisecond+spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// do sends one request and times it from due.
func (w *serveOpen) do(c *http.Client, r *request, due time.Time, tr *tracer) reqResult {
	op := tr.op("op.serve-open")
	op.start = due
	res := reqResult{due: due}
	hr, err := http.NewRequest(http.MethodPost, w.ts.URL+"/v1/designs/"+w.subs[r.design].name+"/"+r.route, bytes.NewReader(r.body))
	if err != nil {
		return res
	}
	hr.Header.Set("Content-Type", "application/json")
	if tr != nil {
		hr.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op.id, op.opID))
	}
	res.sent = time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		res.recv = time.Now()
		op.end()
		return res
	}
	// Bodies are kept only where a check or the trace reads them.
	if tr != nil || r.route == "reload" || r.sample {
		res.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	res.recv = time.Now()
	op.end()
	res.ok = err == nil && resp.StatusCode == http.StatusOK
	if id, err := strconv.ParseInt(resp.Header.Get(spanHeader), 10, 64); err == nil {
		res.handler = id
	}
	return res
}

// response holds the response fields the benchmark reads.
type response struct {
	EstimateMs float64         `json:"estimate_ms"`
	SearchMs   float64         `json:"search_ms"`
	BuildMs    float64         `json:"build_ms"`
	Evals      int             `json:"evals"`
	Empty      bool            `json:"empty"`
	Full       bool            `json:"full"`
	Changed    []string        `json:"changed"`
	Dependents []string        `json:"dependents"`
	Report     json.RawMessage `json:"report"`
}

// work is the time the daemon reports for the request's own work.
func (r response) work() float64 { return r.EstimateMs + r.SearchMs + r.BuildMs }

// record keeps what the checks need and counts the rebuild paths the
// reloads took.
func (w *serveOpen) record(reqs []request, results []reqResult, ph *phase) {
	var reloads, full, empty int
	var changed, dependents float64
	for i, res := range results {
		r := reqs[i]
		if !res.ok {
			continue
		}
		switch {
		case r.route == "reload":
			w.events[r.design] = append(w.events[r.design], reloadEvent{res.sent, res.recv, r.body})
			var resp response
			if err := json.Unmarshal(res.body, &resp); err != nil {
				ph.problem("reload response: %v", err)
				continue
			}
			reloads++
			if resp.Full {
				full++
			} else if resp.Empty {
				empty++
			}
			changed += float64(len(resp.Changed))
			dependents += float64(len(resp.Dependents))
		case r.sample:
			var resp response
			if err := json.Unmarshal(res.body, &resp); err != nil {
				ph.problem("estimate response: %v", err)
				continue
			}
			w.samples = append(w.samples, sampleEvent{r.design, res.sent, res.recv, r.body, resp.Report})
		}
	}
	n := float64(max(reloads, 1))
	ph.counts = append(ph.counts,
		m("builder.full_frac", "frac", float64(full)/n), m("builder.empty_frac", "frac", float64(empty)/n),
		m("builder.changed_mean", "count", changed/n), m("builder.dependents_mean", "count", dependents/n))
}

// layerDetail records the daemon's reported work as a span inside each
// handler span, and reports the serving-path breakdown of a traced run.
func (w *serveOpen) layerDetail(reqs []request, results []reqResult, tr *tracer, ph *phase) {
	works := map[int64]float64{}
	var evals, searches float64
	for i, res := range results {
		if !res.ok || res.handler == 0 {
			continue
		}
		var resp response
		if err := json.Unmarshal(res.body, &resp); err != nil {
			continue
		}
		works[res.handler] = resp.work()
		tr.tail(res.handler, "work."+reqs[i].route, time.Duration(resp.work()*float64(time.Millisecond)))
		if reqs[i].route == "search" || reqs[i].route == "explore" {
			evals += float64(resp.Evals)
			searches++
		}
	}
	ph.counts = append(ph.counts, m("partition.evals_per_op", "count", evals/max(searches, 1)))

	handlerMs := map[int64]float64{}
	for _, s := range tr.resolved() {
		if _, ok := works[s.ID]; ok {
			handlerMs[s.ID] = float64(s.End-s.Start) / 1e6
		}
	}
	handler, work := map[string][]float64{}, map[string][]float64{}
	var wait, client []float64
	for i, res := range results {
		h, ok := handlerMs[res.handler]
		if !res.ok || !ok {
			continue
		}
		route := reqs[i].route
		handler[route] = append(handler[route], h)
		work[route] = append(work[route], works[res.handler])
		wait = append(wait, math.Max(h-works[res.handler], 0))
		client = append(client, math.Max(float64(res.recv.Sub(res.sent).Nanoseconds())/1e6-h, 0))
	}
	for _, route := range sortedKeys(handler) {
		ph.detail = append(ph.detail,
			pooledMetric("serve.handler_p50_ms."+route, "ms", handler[route], 0.5),
			pooledMetric("serve.handler_p99_ms."+route, "ms", handler[route], 0.99),
			pooledMetric("serve.work_p50_ms."+route, "ms", work[route], 0.5))
	}
	ph.detail = append(ph.detail,
		pooledMetric("serve.wait_p99_ms", "ms", wait, 0.99),
		pooledMetric("http.client_p99_ms", "ms", client, 0.99))
}

// pollQueueDepth samples the daemon's queue depth once a second in a
// traced run; the returned function stops the poller and reports the
// largest depth seen.
func (w *serveOpen) pollQueueDepth(tr *tracer) func() int64 {
	if tr == nil {
		return func() int64 { return 0 }
	}
	done := make(chan struct{})
	var maxDepth atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if st, err := w.stats(); err == nil && st.QueueDepth > maxDepth.Load() {
					maxDepth.Store(st.QueueDepth)
				}
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		return maxDepth.Load()
	}
}

func (w *serveOpen) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(w.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// check compares the sampled estimates with the mirror, and the store's
// checkpoints with fresh builds of the sources they name.
func (w *serveOpen) check(tr *tracer) []string {
	var problems []string
	fail := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	chk := tr.op("check.mirror")
	defer chk.end()
	mirrors := map[string]*specsyn.Env{}
	mirrorOf := func(d int, src string) (*specsyn.Env, error) {
		if env := mirrors[src]; env != nil {
			return env, nil
		}
		env, err := w.mirror(d, src, chk)
		if err == nil {
			mirrors[src] = env
		}
		return env, err
	}
	for _, s := range w.samples {
		var req serve.EstimateRequest
		if err := json.Unmarshal(s.body, &req); err != nil {
			fail("sample: %v", err)
			continue
		}
		matched := false
		for _, src := range w.candidates(s.design, s.sent, s.recv) {
			env, err := mirrorOf(s.design, src)
			if err != nil {
				fail("%v", err)
				break
			}
			pt, err := assignedPartition(env, sortedKeys(req.Assign))
			if err != nil {
				fail("mirror partition: %v", err)
				break
			}
			sp := chk.child("estimate.Report")
			rep, _, err := env.Estimate(pt, estimate.Options{})
			sp.end()
			if err != nil {
				fail("mirror estimate: %v", err)
				break
			}
			var got bytes.Buffer
			if json.Compact(&got, s.report) == nil && bytes.Equal(got.Bytes(), mustJSON(rep)) {
				matched = true
				break
			}
		}
		if !matched {
			fail("%s: estimate response differs from the in-process mirror", w.subs[s.design].name)
		}
	}

	end := time.Now()
	for d, sub := range w.subs {
		sd, err := w.st.Load(sub.name)
		if err != nil {
			fail("store: %s: %v", sub.name, err)
			continue
		}
		tips := w.candidates(d, end, end)
		if !slices.Contains(tips, sd.VHDL) {
			fail("store: %s: journal tip is not the last source sent", sub.name)
		}
		if sd.Ckpt == nil {
			continue
		}
		env, err := mirrorOf(d, sd.Ckpt.VHDL)
		if err != nil {
			fail("%v", err)
			continue
		}
		want, err1 := compiledBytes(env.Graph, chk)
		got, err2 := compiledBytes(sd.Ckpt.Graph, chk)
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			fail("store: %s: checkpoint differs from a fresh build of its source (%v, %v)", sub.name, err1, err2)
		}
		if tr != nil {
			sp := chk.child("estimate.NewDeps")
			_, err := estimate.NewDeps(env.Graph)
			sp.end()
			if err != nil {
				fail("%s: deps: %v", sub.name, err)
			}
		}
	}
	if st, err := w.stats(); err != nil || st.Failures > 0 || st.Panics > 0 {
		fail("daemon: %d failures, %d panics (%v)", st.Failures, st.Panics, err)
	}
	return problems
}

// candidates lists the sources design d may have had while a request was
// in flight between sent and recv: the last reload that completed before
// sent, every reload in flight with it, and every reload sent before recv
// that completed after it began.
func (w *serveOpen) candidates(d int, sent, recv time.Time) []string {
	evs := w.events[d]
	base := -1
	for i, e := range evs {
		if !e.recv.After(sent) && (base < 0 || e.recv.After(evs[base].recv)) {
			base = i
		}
	}
	var out []string
	var since time.Time
	if base < 0 {
		out = append(out, w.initial[d])
	} else {
		since = evs[base].sent
	}
	for _, e := range evs {
		if e.sent.Before(recv) && e.recv.After(since) {
			var req serve.ReloadRequest
			if json.Unmarshal(e.body, &req) == nil {
				out = append(out, req.VHDL)
			}
		}
	}
	return out
}

// timedHandler wraps the daemon: in a traced stretch it records a span
// around each request the daemon handles, under the client's span.
type timedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	var parent, opID int64
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &parent, &opID); err != nil {
		t.h.ServeHTTP(w, r)
		return
	}
	sp := tr.under(parent, opID, "serve."+path.Base(r.URL.Path))
	w.Header().Set(spanHeader, strconv.FormatInt(sp.id, 10))
	t.h.ServeHTTP(w, r)
	sp.end()
}

// countingFS is the store's filesystem: the real one, except that fsyncs
// are counted and not performed. The store's code runs in full, but the
// disk's flush latency, a property of the machine and not of the program,
// stays out of the numbers, as it would on tmpfs.
type countingFS struct {
	faultinject.OSFS
	syncs, written, renames atomic.Int64
}

func (c *countingFS) Create(name string) (faultinject.File, error) {
	f, err := c.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Append(name string) (faultinject.File, error) {
	f, err := c.OSFS.Append(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.OSFS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(string) error {
	c.syncs.Add(1)
	return nil
}

type countingFile struct {
	faultinject.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return nil
}

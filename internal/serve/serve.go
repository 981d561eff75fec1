// Package serve is SpecSyn-as-a-service: the HTTP/JSON layer that holds
// built specsyn.Env sessions in an LRU cache and serves estimation,
// partition-search and exploration requests for many designs at once —
// the paper's "build the SLIF once, estimate thousands of designs from
// it" thesis operationalized as a daemon.
//
// Concurrency model, in one paragraph: every design session is a built
// Env behind a single-writer/many-reader lock. Readers (estimate, search,
// explore) pin the session state with a shallow Env copy and run outside
// the lock — safe because Reload is copy-on-write and never mutates the
// graph a running search walks. The one writer (reload) holds the write
// lock across its incremental rebuild so source-diff chains stay coherent.
// Admission control is two-level: a global worker pool bounds the heavy
// work in flight across the whole process, and each session has its own
// slot count plus a bounded wait queue; a request beyond the queue is
// load-shed with 503 rather than buried. Every handler runs under a
// deadline (request-supplied, capped by the server) and an eval budget
// (request-supplied, capped by the server), and panics are contained per
// request — one poisoned design cannot take the daemon down.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specsyn/internal/alloc"
	"specsyn/internal/builder"
	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/specsyn"
	"specsyn/internal/store"
)

// Config tunes the daemon; the zero value serves with sane defaults.
type Config struct {
	// MaxSessions caps the LRU session cache; 0 means 64.
	MaxSessions int
	// MaxConcurrent bounds heavy work (build, reload, estimate, search)
	// in flight across all sessions; 0 means GOMAXPROCS.
	MaxConcurrent int
	// SessionSlots is the number of requests that may run against one
	// session concurrently; 0 means 2.
	SessionSlots int
	// SessionQueue is the number of requests that may wait for a session
	// slot beyond the running ones; further requests get 503. 0 means 8;
	// negative means no waiting at all.
	SessionQueue int
	// DefaultTimeout is the per-request deadline when the request names
	// none; 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any request-supplied deadline; 0 means 2m.
	MaxTimeout time.Duration
	// MaxEvals caps any request-supplied cost-evaluation budget, and is
	// the budget for requests that name none. 0 means unlimited.
	MaxEvals int
	// Library is the component library for builds that do not ship one;
	// nil means alloc.Std().
	Library *alloc.Library
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Store, if non-nil, makes sessions durable: inputs are journaled on
	// build/reload/delete, compiled images are checkpointed, and Recover
	// replays the store on startup. nil serves from memory only.
	Store *store.Store
	// CheckpointEvery writes a session checkpoint once this many journal
	// records have accumulated past the last one (builds always
	// checkpoint); 0 means 8.
	CheckpointEvery int
	// RetryAfter is the backoff hint sent in the Retry-After header of
	// load-shed 503 responses; 0 means 1s.
	RetryAfter time.Duration
}

func (c Config) maxSessions() int {
	if c.MaxSessions > 0 {
		return c.MaxSessions
	}
	return 64
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) sessionSlots() int {
	if c.SessionSlots > 0 {
		return c.SessionSlots
	}
	return 2
}

func (c Config) sessionQueue() int {
	switch {
	case c.SessionQueue > 0:
		return c.SessionQueue
	case c.SessionQueue < 0:
		return 0
	}
	return 8
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout > 0 {
		return c.DefaultTimeout
	}
	return 30 * time.Second
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 2 * time.Minute
}

func (c Config) library() *alloc.Library {
	if c.Library != nil {
		return c.Library
	}
	return alloc.Std()
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 8
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}

// Server is the exploration daemon. Create it with New and mount it as an
// http.Handler; it is safe for concurrent use.
type Server struct {
	cfg     Config
	cache   *cache
	work    chan struct{} // global heavy-work pool
	metrics Metrics
	mux     *http.ServeMux

	// ready is false only while Recover replays the store; draining is
	// set by BeginDrain. Either one 503s data-plane requests and /readyz,
	// while /healthz keeps answering — liveness and readiness are
	// different questions.
	ready    atomic.Bool
	draining atomic.Bool

	// restoreMu singleflights restore-on-miss so a burst of requests for
	// one evicted session decodes its checkpoint once.
	restoreMu sync.Mutex
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		cache: newCache(cfg.maxSessions()),
		work:  make(chan struct{}, cfg.maxConcurrent()),
		mux:   http.NewServeMux(),
	}
	s.metrics.start = time.Now()
	s.ready.Store(true) // Recover, if used, flips it off for the replay

	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case !s.ready.Load():
			w.Header().Set("Retry-After", s.retryAfterSecs())
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "recovering")
		case s.draining.Load():
			w.Header().Set("Retry-After", s.retryAfterSecs())
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		default:
			fmt.Fprintln(w, "ready")
		}
	})
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/designs", s.handleList)
	s.mux.HandleFunc("POST /v1/designs/{id}/build", s.contained(s.handleBuild))
	s.mux.HandleFunc("POST /v1/designs/{id}/reload", s.contained(s.handleReload))
	s.mux.HandleFunc("POST /v1/designs/{id}/estimate", s.contained(s.handleEstimate))
	s.mux.HandleFunc("POST /v1/designs/{id}/search", s.contained(s.handleSearch))
	s.mux.HandleFunc("POST /v1/designs/{id}/explore", s.contained(s.handleExplore))
	s.mux.HandleFunc("DELETE /v1/designs/{id}", s.handleDelete)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats returns a snapshot of the daemon's counters, for /v1/stats and
// for expvar publication by the main package.
func (s *Server) Stats() Stats {
	return s.metrics.snapshot(s.cache.len())
}

// contained wraps a handler with request accounting and panic containment:
// a panicking request becomes a 500 with the failure counted, and the
// daemon keeps serving.
func (s *Server) contained(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		if !s.ready.Load() {
			s.writeError(w, http.StatusServiceUnavailable, errors.New("starting: session recovery in progress"))
			return
		}
		if s.draining.Load() {
			s.writeError(w, http.StatusServiceUnavailable, errors.New("draining: daemon is shutting down"))
			return
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1) // writeError counts the failure
				s.writeError(w, http.StatusInternalServerError,
					fmt.Errorf("panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack()))
			}
		}()
		h(w, r)
	}
}

// errorBody is every non-2xx response's JSON shape.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	switch {
	case status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests:
		s.metrics.rejects.Add(1)
		// Load-shed responses carry a backoff hint so clients retry
		// instead of hammering or giving up.
		w.Header().Set("Retry-After", s.retryAfterSecs())
	case status >= 500:
		s.metrics.failures.Add(1)
	case status >= 400:
		s.metrics.clientErr.Add(1)
	}
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// retryAfterSecs renders the configured backoff as whole seconds (the
// header's delay-seconds form), never less than 1.
func (s *Server) retryAfterSecs() string {
	secs := int((s.cfg.retryAfter() + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeJSON encodes v before the status line goes out, so a value JSON
// cannot carry (a NaN or infinite estimate) becomes a counted 500 instead
// of a 2xx with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// deadline derives the request context every heavy handler runs under:
// the request-supplied timeout (milliseconds), clamped to the server cap,
// defaulting to the server's standard deadline.
func (s *Server) deadline(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.defaultTimeout()
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if max := s.cfg.maxTimeout(); d > max {
		d = max
	}
	return context.WithTimeout(r.Context(), d)
}

// budget clamps a request-supplied eval budget to the server cap.
func (s *Server) budget(maxEvals int) int {
	cap := s.cfg.MaxEvals
	if cap <= 0 {
		return maxEvals
	}
	if maxEvals <= 0 || maxEvals > cap {
		return cap
	}
	return maxEvals
}

// acquireWork takes a global worker-pool slot, respecting the context.
func (s *Server) acquireWork(ctx context.Context) error {
	select {
	case s.work <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseWork() { <-s.work }

// admit runs the two-level admission for one session-bound request and
// returns a release closure, or writes the refusal and returns false.
func (s *Server) admit(ctx context.Context, sess *session, w http.ResponseWriter) (func(), bool) {
	s.metrics.queued.Add(1)
	if err := sess.acquire(ctx); err != nil {
		s.metrics.queued.Add(-1)
		if errors.Is(err, errBusy) {
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("session %s: %w", sess.id, err))
		} else {
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("session %s: queue wait: %w", sess.id, err))
		}
		return nil, false
	}
	if err := s.acquireWork(ctx); err != nil {
		sess.release()
		s.metrics.queued.Add(-1)
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("worker pool wait: %w", err))
		return nil, false
	}
	return func() {
		s.releaseWork()
		sess.release()
		s.metrics.queued.Add(-1)
	}, true
}

// lookup fetches the session — from the cache, or restored from the
// durable store after an LRU eviction or restart — or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	if sess := s.cache.get(id); sess != nil {
		return sess, true
	}
	if s.cfg.Store != nil && s.cfg.Store.Has(id) {
		sess, err := s.restoreMiss(id)
		if err != nil {
			s.metrics.recoveryFail.Add(1)
			s.writeError(w, http.StatusInternalServerError,
				fmt.Errorf("session %q failed to restore from the store: %w", id, err))
			return nil, false
		}
		return sess, true
	}
	s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q (build it first)", id))
	return nil, false
}

// BuildRequest creates or replaces one design session. VHDL is required;
// profile, library and overrides are the same text formats the CLI loads
// from disk, and optional.
type BuildRequest struct {
	VHDL      string `json:"vhdl"`
	Profile   string `json:"profile,omitempty"`
	Library   string `json:"library,omitempty"`
	Overrides string `json:"overrides,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// BuildResponse summarizes a fresh build.
type BuildResponse struct {
	ID       string  `json:"id"`
	BV       int     `json:"behaviors_variables"`
	Channels int     `json:"channels"`
	Procs    int     `json:"processors"`
	Buses    int     `json:"buses"`
	BuildMs  float64 `json:"build_ms"`
	Evicted  int     `json:"evicted,omitempty"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req BuildRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.VHDL) == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("vhdl source is required"))
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMs)
	defer cancel()
	if err := s.acquireWork(ctx); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("worker pool wait: %w", err))
		return
	}
	defer s.releaseWork()

	env, err := s.newEnv(req.VHDL, req.Profile, req.Library, req.Overrides)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := env.Build(); err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.builds.Add(1)

	sess := newSession(id, env, s.cfg.sessionSlots(), s.cfg.sessionQueue())
	sess.profile, sess.library, sess.overrides = req.Profile, req.Library, req.Overrides
	sess.seq = s.journalBuild(id, req)
	evicted := s.install(sess)
	// A fresh build is always checkpointed: restore-on-miss and crash
	// recovery then skip the front end entirely.
	s.checkpoint(sess)
	st := env.Graph.Stats()
	s.writeJSON(w, http.StatusOK, BuildResponse{
		ID: id, BV: st.BV, Channels: st.Channels,
		Procs: len(env.Graph.Procs), Buses: len(env.Graph.Buses),
		BuildMs: float64(env.BuildTime.Microseconds()) / 1000,
		Evicted: evicted,
	})
}

// ReloadRequest swaps an edited source into the session.
type ReloadRequest struct {
	VHDL      string `json:"vhdl"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// ReloadResponse reports what the incremental rebuild did.
type ReloadResponse struct {
	ID         string   `json:"id"`
	Empty      bool     `json:"empty"`
	Full       bool     `json:"full"`
	Reason     string   `json:"reason,omitempty"`
	Changed    []string `json:"changed,omitempty"`
	Dependents []string `json:"dependents,omitempty"`
	BuildMs    float64  `json:"build_ms"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req ReloadRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.VHDL) == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("vhdl source is required"))
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMs)
	defer cancel()
	release, ok := s.admit(ctx, sess, w)
	if !ok {
		return
	}
	defer release()

	var delta builder.Delta
	var buildTime time.Duration
	err := sess.withWrite(func(env *specsyn.Env) error {
		var err error
		delta, err = env.Reload(req.VHDL)
		buildTime = env.BuildTime
		if err == nil {
			// Journal inside the write lock: journal order is apply order,
			// so replay reproduces exactly this source chain. (withWrite
			// holds sess.mu, which also guards sess.seq.)
			if seq := s.journalReload(sess.id, req.VHDL); seq > 0 {
				sess.seq = seq
			}
		}
		return err
	})
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.builds.Add(1)
	s.maybeCheckpoint(sess)
	s.writeJSON(w, http.StatusOK, ReloadResponse{
		ID: sess.id, Empty: delta.Empty(), Full: delta.Full, Reason: delta.Reason,
		Changed: delta.Changed, Dependents: delta.Dependents,
		BuildMs: float64(buildTime.Microseconds()) / 1000,
	})
}

// EstimateRequest asks for the full §3 metric report. Assign moves the
// named nodes onto the named components on top of the all-software default
// partition before estimating.
type EstimateRequest struct {
	Assign    map[string]string `json:"assign,omitempty"`
	TimeoutMs int               `json:"timeout_ms,omitempty"`
}

// EstimateResponse carries the report plus the estimation latency — the
// paper's T-est, measured per request.
type EstimateResponse struct {
	ID         string           `json:"id"`
	Report     *estimate.Report `json:"report"`
	EstimateMs float64          `json:"estimate_ms"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req EstimateRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMs)
	defer cancel()
	release, ok := s.admit(ctx, sess, w)
	if !ok {
		return
	}
	defer release()

	env := sess.snapshot()
	pt, err := env.DefaultPartition()
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	for node, comp := range req.Assign {
		n := env.Graph.NodeByName(node)
		if n == nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("assign: no node %q", node))
			return
		}
		var c core.Component
		if p := env.Graph.ProcByName(comp); p != nil {
			c = p
		} else if m := env.Graph.MemByName(comp); m != nil {
			c = m
		}
		if c == nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("assign: no component %q", comp))
			return
		}
		if err := pt.Assign(n, c); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("assign %s→%s: %w", node, comp, err))
			return
		}
	}
	rep, dur, err := env.Estimate(pt, estimate.Options{})
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.evals.Add(1)
	s.writeJSON(w, http.StatusOK, EstimateResponse{
		ID: sess.id, Report: rep,
		EstimateMs: float64(dur.Microseconds()) / 1000,
	})
}

// SearchRequest runs one partition-search algorithm on the session.
type SearchRequest struct {
	Algo      string `json:"algo"`           // a search preset (specsyn.SearchSpec); "" means greedy
	Seed      int64  `json:"seed,omitempty"` // 0 is a valid, deterministic seed
	Iters     int    `json:"iters,omitempty"`
	MaxEvals  int    `json:"max_evals,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
}

// SearchResponse reports the best partition found.
type SearchResponse struct {
	ID         string            `json:"id"`
	Algo       string            `json:"algo"`
	Cost       float64           `json:"cost"`
	Evals      int               `json:"evals"`
	Partial    bool              `json:"partial"`
	Assignment map[string]string `json:"assignment"`
	SearchMs   float64           `json:"search_ms"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if out, ok := s.search(w, r, &req); ok {
		s.writeJSON(w, http.StatusOK, SearchResponse{
			ID: out.id, Algo: out.spec.Algo, Cost: out.res.Cost, Evals: out.res.Report.Evals,
			Partial: out.res.Report.Partial, Assignment: out.assignment, SearchMs: out.ms,
		})
	}
}

func (q *SearchRequest) spec() (specsyn.SearchSpec, int) {
	return specsyn.SearchSpec{Algo: cmp.Or(q.Algo, "greedy"), Seed: q.Seed, Iters: q.Iters, MaxEvals: q.MaxEvals}, q.TimeoutMs
}

// searchBody is a decoded /search or /explore body.
type searchBody interface {
	spec() (specsyn.SearchSpec, int)
}

// searched is one search's outcome, ready for either response shape.
type searched struct {
	id         string
	spec       specsyn.SearchSpec
	res        partition.MultiResult
	assignment map[string]string
	ms         float64
}

// search decodes a search body into req, normalizes its spec — a bad
// body is refused with 400 before it takes a slot — and runs it on a
// snapshot of the session, under the server's deadline and eval cap.
func (s *Server) search(w http.ResponseWriter, r *http.Request, req searchBody) (searched, bool) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return searched{}, false
	}
	if err := readJSON(r, req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return searched{}, false
	}
	spec, timeoutMs := req.spec()
	if err := spec.Normalize(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return searched{}, false
	}
	spec.MaxEvals = s.budget(spec.MaxEvals)
	ctx, cancel := s.deadline(r, timeoutMs)
	defer cancel()
	release, ok := s.admit(ctx, sess, w)
	if !ok {
		return searched{}, false
	}
	defer release()

	env := sess.snapshot()
	start := time.Now()
	res, err := env.Search(ctx, spec)
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return searched{}, false
	}
	s.metrics.evals.Add(int64(res.Report.Evals))
	s.metrics.rounds.Add(int64(res.Report.Rounds))
	s.metrics.legsKilled.Add(int64(res.Report.LegsKilled))
	s.metrics.legsRespawned.Add(int64(res.Report.LegsRespawned))
	if res.Best == nil {
		s.writeError(w, http.StatusUnprocessableEntity,
			errors.New("search stopped before evaluating any partition (deadline or budget too tight)"))
		return searched{}, false
	}
	return searched{sess.id, spec, res, assignment(&env, res.Best),
		float64(time.Since(start).Microseconds()) / 1000}, true
}

// ExploreRequest runs a search with the multi-leg engine's options on the
// session. Its limits are specsyn's: LegLimit legs, RoundLimit rounds and
// RoundEvalsLimit round_evals.
type ExploreRequest struct {
	Algo      string `json:"algo,omitempty"` // a search preset; "" means multi
	Seed      int64  `json:"seed,omitempty"`
	Legs      int    `json:"legs,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Iters     int    `json:"iters,omitempty"`
	MaxEvals  int    `json:"max_evals,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`

	// Round options; setting any of them runs the engine in rounds.
	Share      bool    `json:"share,omitempty"`
	RoundEvals int     `json:"round_evals,omitempty"`
	MaxRounds  int     `json:"max_rounds,omitempty"`
	KillMargin float64 `json:"kill_margin,omitempty"`
}

// ExploreResponse reports the merged portfolio result.
type ExploreResponse struct {
	ID            string                 `json:"id"`
	Algo          string                 `json:"algo"`
	Cost          float64                `json:"cost"`
	Evals         int                    `json:"evals"`
	Partial       bool                   `json:"partial"`
	BestLeg       int                    `json:"best_leg"`
	LegsPlanned   int                    `json:"legs_planned"`
	LegsCompleted int                    `json:"legs_completed"`
	Panics        int                    `json:"panics_contained"`
	Rounds        int                    `json:"rounds,omitempty"`
	LegsKilled    int                    `json:"legs_killed,omitempty"`
	LegsRespawned int                    `json:"legs_respawned,omitempty"`
	Curve         []partition.CurvePoint `json:"curve,omitempty"`
	Assignment    map[string]string      `json:"assignment"`
	SearchMs      float64                `json:"search_ms"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	out, ok := s.search(w, r, &req)
	if !ok {
		return
	}
	rep := out.res.Report
	s.writeJSON(w, http.StatusOK, ExploreResponse{
		ID: out.id, Algo: out.spec.Algo, Cost: out.res.Cost, Evals: rep.Evals,
		Partial: rep.Partial, BestLeg: out.res.BestLeg,
		LegsPlanned: rep.LegsPlanned, LegsCompleted: rep.LegsCompleted,
		Panics: len(rep.Panics), Rounds: rep.Rounds,
		LegsKilled: rep.LegsKilled, LegsRespawned: rep.LegsRespawned,
		Curve: rep.Curve, Assignment: out.assignment, SearchMs: out.ms,
	})
}

func (q *ExploreRequest) spec() (specsyn.SearchSpec, int) {
	return specsyn.SearchSpec{Algo: q.Algo, Seed: q.Seed, Iters: q.Iters, MaxEvals: q.MaxEvals,
		ParallelOptions: partition.ParallelOptions{Workers: q.Workers, Legs: q.Legs, Share: q.Share,
			RoundEvals: q.RoundEvals, MaxRounds: q.MaxRounds, KillMargin: q.KillMargin}}, q.TimeoutMs
}

// assignment flattens a partition to node-name → component-name, the JSON
// form of a design decision.
func assignment(env *specsyn.Env, pt *core.Partition) map[string]string {
	out := make(map[string]string, len(env.Graph.Nodes))
	for _, n := range env.Graph.Nodes {
		if c := pt.BvComp(n); c != nil {
			out[n.Name] = c.CompName()
		}
	}
	return out
}

// SessionInfo is one row of the session listing.
type SessionInfo struct {
	ID         string    `json:"id"`
	BV         int       `json:"behaviors_variables"`
	Channels   int       `json:"channels"`
	Created    time.Time `json:"created"`
	QueueDepth int64     `json:"queue_depth"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	sessions := s.cache.sessions()
	out := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		env := sess.snapshot()
		st := env.Graph.Stats()
		out = append(out, SessionInfo{
			ID: sess.id, BV: st.BV, Channels: st.Channels,
			Created: sess.created, QueueDepth: sess.pending.Load(),
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	id := r.PathValue("id")
	inCache := s.cache.delete(id)
	inStore := s.cfg.Store != nil && s.cfg.Store.Has(id)
	if !inCache && !inStore {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	if inStore {
		s.journalDelete(id)
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

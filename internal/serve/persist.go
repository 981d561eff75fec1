package serve

// Durability wiring: how the daemon uses internal/store.
//
// Inputs are journaled inside the session's write lock, so journal order
// is exactly apply order. Checkpoints — the session graph as .slif text —
// are written outside it: the env pin (a shallow copy under the read
// lock) stays consistent because reloads install new graphs rather than
// mutating, and each session's flushMu serializes its checkpoint
// writers. Store failures never fail a serving request: the daemon logs
// them, counts them in store_errors, and keeps serving from memory —
// availability over durability.

import (
	"context"
	"fmt"
	"log"
	"strings"

	"specsyn/internal/alloc"
	"specsyn/internal/builder"
	"specsyn/internal/profile"
	"specsyn/internal/specsyn"
)

// newEnv assembles a session environment from raw input texts — the one
// construction path shared by fresh builds, recovery rebuilds and
// checkpoint restores.
func (s *Server) newEnv(vhdl, profileText, libraryText, overridesText string) (*specsyn.Env, error) {
	env := specsyn.New()
	env.Lib = s.cfg.library()
	env.LoadVHDL(vhdl)
	if profileText != "" {
		p, err := profile.Parse(strings.NewReader(profileText))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		env.Prof = p
	}
	if libraryText != "" {
		l, err := alloc.Parse(strings.NewReader(libraryText))
		if err != nil {
			return nil, fmt.Errorf("library: %w", err)
		}
		env.Lib = l
	}
	if overridesText != "" {
		o, err := builder.ParseOverrides(strings.NewReader(overridesText))
		if err != nil {
			return nil, fmt.Errorf("overrides: %w", err)
		}
		env.Overrides = o
	}
	return env, nil
}

// storeFailed records a store error without failing the request.
func (s *Server) storeFailed(op, id string, err error) {
	s.metrics.storeErrs.Add(1)
	log.Printf("serve: store %s %q: %v (serving continues)", op, id, err)
}

// journalBuild appends a build record; 0 means no store or a failed append.
func (s *Server) journalBuild(id string, req BuildRequest) uint64 {
	if s.cfg.Store == nil {
		return 0
	}
	seq, err := s.cfg.Store.AppendBuild(id, req.VHDL, req.Profile, req.Library, req.Overrides)
	if err != nil {
		s.storeFailed("journal build", id, err)
		return 0
	}
	return seq
}

// journalReload appends a reload record; 0 means no store or a failed
// append. Called under the session's write lock so journal order is apply
// order.
func (s *Server) journalReload(id, vhdl string) uint64 {
	if s.cfg.Store == nil {
		return 0
	}
	seq, err := s.cfg.Store.AppendReload(id, vhdl)
	if err != nil {
		s.storeFailed("journal reload", id, err)
		return 0
	}
	return seq
}

// journalDelete appends a tombstone and removes the checkpoint.
func (s *Server) journalDelete(id string) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.AppendDelete(id); err != nil {
		s.storeFailed("journal delete", id, err)
	}
}

// checkpoint flushes one session's graph to the store, if it is
// dirty (journaled past its last checkpoint). Returns false only when a
// flush was needed and failed.
func (s *Server) checkpoint(sess *session) bool {
	if s.cfg.Store == nil {
		return true
	}
	sess.flushMu.Lock()
	defer sess.flushMu.Unlock()
	sess.mu.RLock()
	env := *sess.env
	seq, ckptSeq := sess.seq, sess.ckptSeq
	prof, lib, ovr := sess.profile, sess.library, sess.overrides
	sess.mu.RUnlock()
	if seq == 0 || seq == ckptSeq {
		return true // never journaled, or already covered
	}
	if err := s.cfg.Store.Checkpoint(sess.id, seq, env.Graph, env.Source, prof, lib, ovr); err != nil {
		s.storeFailed("checkpoint", sess.id, err)
		return false
	}
	s.metrics.checkpoints.Add(1)
	sess.mu.Lock()
	if seq > sess.ckptSeq {
		sess.ckptSeq = seq
	}
	sess.mu.Unlock()
	return true
}

// maybeCheckpoint flushes when the dirty reload count reaches the
// configured period.
func (s *Server) maybeCheckpoint(sess *session) {
	if s.cfg.Store == nil {
		return
	}
	if seq, ckptSeq := sess.persist(); seq-ckptSeq >= uint64(s.cfg.checkpointEvery()) {
		s.checkpoint(sess)
	}
}

// install puts a session in the LRU cache, checkpointing any sessions the
// cap pushes out so restore-on-miss can bring them back without the front
// end. Returns the eviction count.
func (s *Server) install(sess *session) int {
	evicted := s.cache.put(sess)
	if len(evicted) > 0 {
		s.metrics.evictions.Add(int64(len(evicted)))
		for _, ev := range evicted {
			s.checkpoint(ev)
		}
	}
	return len(evicted)
}

// restore rebuilds one session from the store: from its checkpoint when
// possible — read the graph's .slif text, and at most one incremental
// Reload to the journal tip, no front-end parse of an unchanged source —
// otherwise a full build from the journaled inputs. usedCkpt reports
// which path ran.
func (s *Server) restore(id string) (sess *session, usedCkpt bool, err error) {
	data, err := s.cfg.Store.Load(id)
	if data == nil {
		return nil, false, err
	}
	if err != nil {
		// Checkpoint unreadable; the journaled inputs still rebuild it.
		s.storeFailed("load checkpoint", id, err)
	}
	var env *specsyn.Env
	if data.Ckpt != nil {
		env, err = s.newEnv("", data.Profile, data.Library, data.Overrides)
		if err != nil {
			env = nil // inputs text damaged? fall through to full build and its error
		} else {
			env.Graph = data.Ckpt.Graph
			env.Source = data.Ckpt.VHDL
			if data.VHDL != data.Ckpt.VHDL {
				if _, rerr := env.Reload(data.VHDL); rerr != nil {
					s.storeFailed("replay reload", id, rerr)
					env = nil
				}
			}
		}
		usedCkpt = env != nil
	}
	if env == nil {
		env, err = s.newEnv(data.VHDL, data.Profile, data.Library, data.Overrides)
		if err != nil {
			return nil, false, err
		}
		if err := env.Build(); err != nil {
			return nil, false, err
		}
		s.metrics.builds.Add(1)
	}
	sess = newSession(id, env, s.cfg.sessionSlots(), s.cfg.sessionQueue())
	sess.seq = data.Seq
	if usedCkpt {
		sess.ckptSeq = data.Ckpt.Seq
		s.metrics.restores.Add(1)
	}
	sess.profile, sess.library, sess.overrides = data.Profile, data.Library, data.Overrides
	return sess, usedCkpt, nil
}

// restoreMiss singleflights restore-on-miss for lookup: one goroutine
// rebuilds, the rest find the result in the cache.
func (s *Server) restoreMiss(id string) (*session, error) {
	s.restoreMu.Lock()
	defer s.restoreMu.Unlock()
	if sess := s.cache.get(id); sess != nil {
		return sess, nil
	}
	sess, _, err := s.restore(id)
	if err != nil {
		return nil, err
	}
	s.install(sess)
	s.checkpoint(sess) // cover any replayed reload tail
	return sess, nil
}

// RecoverReport summarizes a startup recovery replay.
type RecoverReport struct {
	Sessions int // sessions the store knew about
	Restored int // brought back from a checkpoint (no front end)
	Rebuilt  int // rebuilt through the front end from journaled inputs
	Failed   int // could not be brought back at all
}

// Recover replays the store into the session cache. The server reports
// not-ready — /readyz and every data-plane handler answer 503 — until it
// returns, so a load balancer never routes to a half-recovered daemon.
// logf (nil ok) receives one line per failure.
func (s *Server) Recover(logf func(format string, args ...any)) RecoverReport {
	var rep RecoverReport
	if s.cfg.Store == nil {
		return rep
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.ready.Store(false)
	defer s.ready.Store(true)
	for _, id := range s.cfg.Store.Sessions() {
		rep.Sessions++
		sess, usedCkpt, err := s.restore(id)
		if err != nil {
			rep.Failed++
			s.metrics.recoveryFail.Add(1)
			logf("serve: recover %q: %v", id, err)
			continue
		}
		if usedCkpt {
			rep.Restored++
		} else {
			rep.Rebuilt++
		}
		s.metrics.recovered.Add(1)
		s.install(sess)
		s.checkpoint(sess)
	}
	return rep
}

// DrainReport summarizes a graceful-shutdown flush.
type DrainReport struct {
	Dirty   int // sessions that needed a final checkpoint
	Flushed int // of those, how many made it to disk
	Errors  int // failed flushes plus a failed journal compaction
}

// BeginDrain flips the server into draining: /readyz answers 503 so load
// balancers stop routing here, and new data-plane requests are shed.
// In-flight requests are unaffected — the HTTP server's Shutdown waits
// for them.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain checkpoints every dirty session and compacts the journal. Call it
// after the HTTP server has stopped accepting requests; ctx bounds the
// flush work.
func (s *Server) Drain(ctx context.Context) DrainReport {
	var rep DrainReport
	if s.cfg.Store == nil {
		return rep
	}
	for _, sess := range s.cache.sessions() {
		if ctx.Err() != nil {
			rep.Errors++
			break
		}
		if seq, ckptSeq := sess.persist(); seq == ckptSeq {
			continue
		}
		rep.Dirty++
		if s.checkpoint(sess) {
			rep.Flushed++
		} else {
			rep.Errors++
		}
	}
	if err := s.cfg.Store.Compact(); err != nil {
		s.storeFailed("compact", "", err)
		rep.Errors++
	}
	return rep
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"specsyn/internal/builder"
	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/specsyn"
)

// editLoop is the edit-loop workload: one designer session per subject,
// each edit an Env.Reload of a seeded edit followed by Env.Estimate. The
// incremental rebuild does most of the work here, where fig4-cold gives it
// none. Most edits take the patch path and set the median; the one in ten
// that forces a full rebuild sets the p95 tail.
type editLoop struct {
	cfg    config
	subs   []subject
	envs   []*specsyn.Env
	eds    []*editor
	assign [][]string // per subject: the nodes estimated on the ASIC
	edits  []int      // per subject: edits so far, for the periodic check
}

var editSubjects = []string{"ans", "ether", "fuzzy", "vol", "syn-p128"}

// editCheckEvery is how often (in edits per subject) the session graph is
// compared with a fresh build of the same source.
const editCheckEvery = 50

func (w *editLoop) params() map[string]any {
	return map[string]any{"subjects": editSubjects, "edit_mix": "80% null toggle, 10% comment only, 10% signal toggle",
		"check_every": editCheckEvery}
}

// subSeed derives the seed of one subject's input stream.
func subSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 1 }

func (w *editLoop) setup(tr *tracer) error {
	subs, err := loadSubjects(w.cfg.testdata, editSubjects)
	if err != nil {
		return err
	}
	w.subs = subs
	w.envs = make([]*specsyn.Env, len(subs))
	w.eds = make([]*editor, len(subs))
	w.assign = make([][]string, len(subs))
	w.edits = make([]int, len(subs))
	for i, s := range subs {
		ed, err := newEditor(s.name, s.src, subSeed(w.cfg.seed, i))
		if err != nil {
			return err
		}
		src := ed.source()
		env, err := s.newEnv(src)
		if err != nil {
			return err
		}
		sp := tr.op("setup.build")
		err = buildEnv(env, sp, tokenCount(src))
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		rng := rand.New(rand.NewSource(subSeed(w.cfg.seed, i) + 1))
		for _, n := range env.Graph.Nodes {
			if rng.Intn(4) == 0 {
				w.assign[i] = append(w.assign[i], n.Name)
			}
		}
		w.envs[i], w.eds[i] = env, ed
	}
	return nil
}

func (w *editLoop) close() {}

// assignedPartition is the all-software partition with the named nodes
// moved to the ASIC.
func assignedPartition(env *specsyn.Env, names []string) (*core.Partition, error) {
	pt, err := env.DefaultPartition()
	if err != nil {
		return nil, err
	}
	asic := env.Graph.ProcByName("asic")
	for _, name := range names {
		n := env.Graph.NodeByName(name)
		if n == nil || asic == nil {
			return nil, fmt.Errorf("no node %q or no asic", name)
		}
		if err := pt.Assign(n, asic); err != nil {
			return nil, err
		}
	}
	return pt, nil
}

func (w *editLoop) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	edit, est := newTiming(), newTiming()
	byKind := newTiming() // reload time by delta path
	var opSec, changed, dependents float64
	var full, empty int
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i, s := range w.subs {
			env := w.envs[i]
			src, kind := w.eds[i].next()
			ph.attempted++
			op := tr.op("op.edit-loop")
			t0 := time.Now()
			delta, err := reloadEnv(env, src, op)
			rt := time.Since(t0)
			var et time.Duration
			if err == nil {
				sp := op.child("core.Partition")
				var pt *core.Partition
				pt, err = assignedPartition(env, w.assign[i])
				sp.end()
				if err == nil {
					sp = op.child("estimate.Report")
					t1 := time.Now()
					_, _, err = env.Estimate(pt, estimate.Options{})
					et = time.Since(t1)
					sp.end()
				}
			}
			op.end()
			if err != nil {
				ph.failed++
				ph.problem("%s: edit %d (%s): %v", s.name, w.eds[i].n, kind, err)
				continue
			}
			opSec += (rt + et).Seconds()
			edit.add(s.name, float64((rt+et).Nanoseconds())/1e6)
			est.add(s.name, float64(et.Nanoseconds())/1e3)
			byKind.add(s.name+"."+deltaPath(delta), float64(rt.Nanoseconds())/1e6)
			switch {
			case delta.Full:
				full++
			case delta.Empty():
				empty++
			}
			changed += float64(len(delta.Changed))
			dependents += float64(len(delta.Dependents))
			if !kind.matches(delta) {
				ph.problem("%s: %s edit gave delta full=%v empty=%v (%s)", s.name, kind, delta.Full, delta.Empty(), delta.Reason)
			}
			if w.edits[i]++; w.edits[i]%editCheckEvery == 0 {
				w.checkSession(i, src, ph, tr)
			}
		}
	}
	n := float64(edit.count())
	ph.e2e = []metric{
		edit.metric("op_p50_ms", "ms"),
		{Name: "tail_ms", Unit: "ms", Value: edit.geoQuantile(0.95), N: edit.count()},
		m("ops_per_s", "1/s", n/opSec),
		est.metric("estimate_p50_us", "us"),
	}
	for _, k := range edit.keys {
		ph.detail = append(ph.detail, pooledMetric("edit_ms."+k, "ms", edit.by[k], 0.5))
	}
	for _, k := range byKind.keys {
		ph.detail = append(ph.detail, pooledMetric("reload_ms."+k, "ms", byKind.by[k], 0.5))
	}
	nodes, chans := 0, 0
	for _, env := range w.envs {
		st := env.Graph.Stats()
		nodes, chans = nodes+st.BV, chans+st.Channels
	}
	ph.counts = []metric{
		m("core.nodes", "count", float64(nodes)), m("core.channels", "count", float64(chans)),
		m("builder.full_frac", "frac", float64(full)/n), m("builder.empty_frac", "frac", float64(empty)/n),
		m("builder.changed_mean", "count", changed/n), m("builder.dependents_mean", "count", dependents/n),
	}
	return ph
}

// deltaPath names the rebuild path a delta took.
func deltaPath(d builder.Delta) string {
	switch {
	case d.Full:
		return "full"
	case d.Empty():
		return "empty"
	}
	return "patch"
}

// checkSession compares the session's graph with a fresh build of the
// same source, and in a traced run times the compile a search after this
// edit would pay.
func (w *editLoop) checkSession(i int, src string, ph *phase, tr *tracer) {
	s, env := w.subs[i], w.envs[i]
	chk := tr.op("check.rebuild")
	defer chk.end()
	fresh, err := s.newEnv(src)
	if err == nil {
		tokens := 0
		if tr != nil {
			tokens = tokenCount(src)
		}
		err = buildEnv(fresh, chk, tokens)
	}
	if err != nil {
		ph.problem("%s: fresh build: %v", s.name, err)
		return
	}
	same, err := compiledEqual(env.Graph, fresh.Graph, chk)
	if err != nil || !same {
		ph.problem("%s: after edit %d the session graph differs from a fresh build (err %v)", s.name, w.eds[i].n, err)
	}
	if tr != nil {
		sp := chk.child("estimate.NewDeps")
		_, err := estimate.NewDeps(env.Graph)
		sp.end()
		if err != nil {
			ph.problem("%s: deps: %v", s.name, err)
		}
	}
}

func (w *editLoop) check(tr *tracer) []string { return nil }

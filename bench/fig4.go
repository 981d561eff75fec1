package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/specsyn"
)

// fig4 is the fig4-cold workload: the paper's Figure 4 at scale. A closed
// loop with one client builds each subject from source with Env.Build, then
// runs Env.Estimate on ten seeded random hardware/software partitions. The
// front end and the builder's passes do nearly all the work; Rebuild,
// partition search, the daemon and the store are bypassed.
type fig4 struct {
	cfg    config
	subs   []subject
	envs   []*specsyn.Env
	tokens []int
	golden []byte
	rng    *rand.Rand
	builds int // counter for the unique trailing comments
}

var fig4Subjects = []string{"ans", "ether", "fuzzy", "vol", "syn-p128"}

// fig4Counts are the paper's Figure 4 BV/C columns.
var fig4Counts = map[string][2]int{"ans": {45, 64}, "ether": {123, 112}, "fuzzy": {35, 56}, "vol": {30, 41}}

const (
	fig4Estimates = 10 // Env.Estimate calls per build
	// fig4SmallReps builds each paper example this many times per build of
	// syn-p128, so the small examples gather enough samples for their tail.
	fig4SmallReps = 5
)

func (w *fig4) params() map[string]any {
	return map[string]any{"subjects": fig4Subjects, "estimates_per_build": fig4Estimates,
		"builds_per_round": map[string]int{"paper examples": w.reps("ans"), "syn-p128": w.reps("syn-p128")}}
}

func (w *fig4) reps(name string) int {
	if name == "syn-p128" {
		return 1
	}
	return fig4SmallReps
}

func (w *fig4) setup(tr *tracer) error {
	subs, err := loadSubjects(w.cfg.testdata, fig4Subjects)
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(w.cfg.testdata, "golden", "fuzzy.slif"))
	if err != nil {
		return err
	}
	w.subs, w.golden = subs, golden
	w.envs = make([]*specsyn.Env, len(subs))
	w.tokens = make([]int, len(subs))
	for i, s := range subs {
		w.tokens[i] = tokenCount(s.src)
		env, err := s.newEnv(s.src)
		if err != nil {
			return err
		}
		sp := tr.op("setup.build")
		err = buildEnv(env, sp, w.tokens[i])
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		w.envs[i] = env
	}
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	return nil
}

func (w *fig4) close() {}

// randomPartition maps each node to the ASIC with probability 1/4 and
// leaves the rest on the processor.
func randomPartition(env *specsyn.Env, rng *rand.Rand) (*core.Partition, error) {
	pt, err := env.DefaultPartition()
	if err != nil {
		return nil, err
	}
	asic := env.Graph.ProcByName("asic")
	if asic == nil {
		return nil, fmt.Errorf("allocation has no asic")
	}
	for _, n := range env.Graph.Nodes {
		if rng.Intn(4) == 0 {
			if err := pt.Assign(n, asic); err != nil {
				return nil, err
			}
		}
	}
	return pt, nil
}

func (w *fig4) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	build, est := newTiming(), newTiming()
	var opSec float64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := range w.subs {
			for r := 0; r < w.reps(w.subs[i].name); r++ {
				opSec += w.iterate(i, ph, build, est, tr)
			}
		}
	}
	ph.e2e = []metric{
		build.metric("op_p50_ms", "ms"),
		{Name: "tail_ms", Unit: "ms", Value: build.geoQuantile(0.95), N: build.count()},
		m("ops_per_s", "1/s", float64(build.count())/opSec),
		est.metric("estimate_p50_us", "us"),
	}
	for _, k := range build.keys {
		ph.detail = append(ph.detail, pooledMetric("build_ms."+k, "ms", build.by[k], 0.5))
	}
	for _, k := range est.keys {
		ph.detail = append(ph.detail, pooledMetric("estimate_us."+k, "us", est.by[k], 0.5))
	}
	nodes, chans := 0, 0
	for _, env := range w.envs {
		st := env.Graph.Stats()
		nodes, chans = nodes+st.BV, chans+st.Channels
	}
	ph.counts = []metric{m("core.nodes", "count", float64(nodes)), m("core.channels", "count", float64(chans))}
	return ph
}

// iterate is one operation: a cold build of subject i followed by its
// estimates. It returns the operation's time in seconds.
func (w *fig4) iterate(i int, ph *phase, build, est *timing, tr *tracer) float64 {
	s, env := w.subs[i], w.envs[i]
	w.builds++
	env.LoadVHDL(uniqueSource(s.src, "build", w.builds))
	ph.attempted++
	op := tr.op("op.fig4-cold")
	t0 := time.Now()
	err := buildEnv(env, op, w.tokens[i])
	bt := time.Since(t0)
	if err != nil {
		op.end()
		ph.failed++
		ph.problem("%s: build: %v", s.name, err)
		return bt.Seconds()
	}
	total := bt
	var firstPt *core.Partition
	var firstRep *estimate.Report
	for j := 0; j < fig4Estimates; j++ {
		sp := op.child("core.Partition")
		pt, err := randomPartition(env, w.rng)
		sp.end()
		if err != nil {
			ph.problem("%s: partition: %v", s.name, err)
			break
		}
		sp = op.child("estimate.Report")
		t1 := time.Now()
		rep, _, err := env.Estimate(pt, estimate.Options{})
		et := time.Since(t1)
		sp.end()
		total += et
		if err != nil {
			ph.failed++
			ph.problem("%s: estimate: %v", s.name, err)
			break
		}
		est.add(s.name, float64(et.Nanoseconds())/1e3)
		if j == 0 {
			firstPt, firstRep = pt, rep
		}
	}
	op.end()
	build.add(s.name, float64(bt.Nanoseconds())/1e6)

	// Outside the timed operation: the checks, and in a traced run the
	// compile a later search would pay, timed as an extra operation.
	if want, ok := fig4Counts[s.name]; ok {
		if st := env.Graph.Stats(); st.BV != want[0] || st.Channels != want[1] {
			ph.problem("%s: BV/C %d/%d, paper says %d/%d", s.name, st.BV, st.Channels, want[0], want[1])
		}
	}
	if firstPt != nil && w.builds%10 == 0 {
		again, _, err := env.Estimate(firstPt, estimate.Options{})
		if err != nil || !sameReport(firstRep, again) {
			ph.problem("%s: repeated estimate of one partition differs (err %v)", s.name, err)
		}
	}
	if tr != nil {
		ex := tr.op("extra.compile")
		sp := ex.child("core.Compile")
		_, err := core.Compile(env.Graph)
		sp.end()
		if err == nil {
			sp = ex.child("estimate.NewDeps")
			_, err = estimate.NewDeps(env.Graph)
			sp.end()
		}
		ex.end()
		if err != nil {
			ph.problem("%s: compile: %v", s.name, err)
		}
	}
	return total.Seconds()
}

func sameReport(a, b *estimate.Report) bool {
	ad, err1 := json.Marshal(a)
	bd, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ad, bd)
}

// check compares the last fuzzy graph with the checked-in golden file.
func (w *fig4) check(tr *tracer) []string {
	for i, s := range w.subs {
		if s.name != "fuzzy" {
			continue
		}
		var buf bytes.Buffer
		if err := core.Write(&buf, w.envs[i].Graph, nil); err != nil {
			return []string{fmt.Sprintf("fuzzy: write: %v", err)}
		}
		if !bytes.Equal(buf.Bytes(), w.golden) {
			return []string{"fuzzy: written graph differs from testdata/golden/fuzzy.slif"}
		}
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/specsyn"
)

// explore is the explore-batch workload: batch design-space exploration,
// the paper's §5 claim. A closed loop runs passes of 16 jobs, one per
// (subject, algorithm) pair, each job with nproc search workers. Partition
// search and estimation do nearly all the work; the front end runs only in
// setup.
type explore struct {
	cfg    config
	subs   []subject
	envs   []*specsyn.Env
	greedy []float64 // per subject: the greedy cost, the quality baseline
	pass   int
	reran  []bool // per subject: the one-worker rerun check has run
}

var (
	exploreSubjects = []string{"fuzzy", "ether", "syn-p128", "syn-p1024"}
	exploreAlgos    = []string{"random", "multi", "portfolio", "anneal"}
)

// exploreEstimates is how often each job's best partition is estimated:
// the workload's T-est samples.
const exploreEstimates = 10

func (w *explore) params() map[string]any {
	return map[string]any{"subjects": exploreSubjects, "algorithms": exploreAlgos,
		"workers": runtime.NumCPU(), "software_cap": 0.6,
		"random": "iters 1000, max_evals 1000", "multi": "4 legs, max_evals 100000",
		"portfolio": "6 legs, round_evals 256, max_rounds 5, share", "anneal": "from greedy"}
}

func (w *explore) setup(tr *tracer) error {
	subs, err := loadSubjects(w.cfg.testdata, exploreSubjects)
	if err != nil {
		return err
	}
	w.subs, w.pass = subs, 0
	w.envs = make([]*specsyn.Env, len(subs))
	w.greedy = make([]float64, len(subs))
	w.reran = make([]bool, len(subs))
	for i, s := range subs {
		env, err := s.newEnv(s.src)
		if err != nil {
			return err
		}
		sp := tr.op("setup.build")
		err = buildEnv(env, sp, tokenCount(s.src))
		sp.end()
		if err == nil {
			err = tightenSoftware(env)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if tr != nil {
			ex := tr.op("setup.compile")
			sp := ex.child("core.Compile")
			_, err = core.Compile(env.Graph)
			sp.end()
			sp = ex.child("estimate.NewDeps")
			_, err2 := estimate.NewDeps(env.Graph)
			sp.end()
			ex.end()
			if err == nil {
				err = err2
			}
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		res, err := env.PartitionSearch(context.Background(), "greedy", partition.Constraints{},
			partition.DefaultWeights(), 0, 0, 0)
		if err != nil {
			return fmt.Errorf("%s: greedy: %w", s.name, err)
		}
		w.envs[i], w.greedy[i] = env, res.Cost
	}
	return nil
}

// tightenSoftware caps the software processor at 60% of the design's
// all-software size, so the all-software partition violates and searches
// trade hardware against software instead of finding cost 0 at once.
func tightenSoftware(env *specsyn.Env) error {
	pt, err := env.DefaultPartition()
	if err != nil {
		return err
	}
	rep, _, err := env.Estimate(pt, estimate.Options{})
	if err != nil {
		return err
	}
	cpu := env.Graph.Procs[0]
	for _, c := range rep.Comps {
		if c.Name == cpu.Name && c.Size > 0 {
			cpu.SizeCon = c.Size * 0.6
		}
	}
	return nil
}

func (w *explore) close() {}

// job is one search of one subject.
type job struct {
	subject int
	algo    string
	seed    int64
}

// exploreJobs is one pass: every (subject, algorithm) pair once, with seeds
// derived from the run seed and the pass number.
func exploreJobs(seed int64, pass, subjects int) []job {
	var jobs []job
	for s := 0; s < subjects; s++ {
		for a, algo := range exploreAlgos {
			jobs = append(jobs, job{s, algo, subSeed(seed, (pass*subjects+s)*len(exploreAlgos)+a)})
		}
	}
	return jobs
}

// jobResult is what one search returned.
type jobResult struct {
	cost    float64
	evals   int
	best    *core.Partition
	partial bool
	rounds  int
	killed  int
	respawn int
	legs    int
}

// runJob runs a job with the given number of search workers.
func (w *explore) runJob(j job, workers int, parent spanRef) (jobResult, error) {
	env := w.envs[j.subject]
	ctx := context.Background()
	cons, wts := partition.Constraints{}, partition.DefaultWeights()
	sp := parent.child("partition." + j.algo)
	defer sp.end()
	if j.algo == "anneal" {
		res, err := env.PartitionSearch(ctx, "anneal", cons, wts, j.seed, 0, 0)
		return jobResult{cost: res.Cost, evals: res.Evals, best: res.Best, partial: res.Partial, legs: 1}, err
	}
	opt := partition.ParallelOptions{Workers: workers}
	algo, iters, maxEvals := j.algo, 0, 0
	switch j.algo {
	case "random":
		iters, maxEvals = 1000, 1000
	case "multi":
		// A cap the legs do not reach: with 20000 (5000 per
		// leg) syn-p1024's greedy leg stops early and reports a partial result.
		opt.Legs, maxEvals = 4, 100000
	case "portfolio":
		opt.Legs, opt.RoundEvals, opt.MaxRounds, opt.Share = 6, 256, 5, true
	}
	res, err := env.PartitionSearchParallel(ctx, algo, cons, wts, j.seed, iters, maxEvals, opt)
	return jobResult{cost: res.Cost, evals: res.Report.Evals, best: res.Best, partial: res.Report.Partial,
		rounds: res.Report.Rounds, killed: res.Report.LegsKilled, respawn: res.Report.LegsRespawned,
		legs: res.Report.LegsPlanned}, err
}

func (w *explore) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	workers := runtime.NumCPU()
	jobMs, est := newTiming(), newTiming()
	evals := map[string]float64{}
	jobSec := map[string]float64{}
	var ratios []float64
	var partial, portfolioJobs, rounds, killed, respawned, strands int
	var totalEvals float64
	deadline := time.Now().Add(d)
	for done := false; !done; w.pass++ {
		for _, j := range exploreJobs(w.cfg.seed, w.pass, len(w.subs)) {
			if !time.Now().Before(deadline) && ph.attempted > 0 {
				done = true
				break
			}
			s := w.subs[j.subject]
			key := s.name + "." + j.algo
			ph.attempted++
			op := tr.op("op.explore-batch")
			t0 := time.Now()
			r, err := w.runJob(j, workers, op)
			dt := time.Since(t0)
			op.end()
			if err != nil || r.best == nil {
				ph.failed++
				ph.problem("%s: %v", key, err)
				continue
			}
			jobMs.add(key, float64(dt.Nanoseconds())/1e6)
			jobSec[key] += dt.Seconds()
			evals[key] += float64(r.evals)
			totalEvals += float64(r.evals)
			if r.partial {
				partial++
			}
			if j.algo != "random" && w.greedy[j.subject] > 0 {
				ratios = append(ratios, r.cost/w.greedy[j.subject])
			}
			if j.algo == "portfolio" {
				portfolioJobs++
				rounds += r.rounds
				killed += r.killed
				respawned += r.respawn
				strands += r.legs + r.respawn
				if r.cost > w.greedy[j.subject]+1e-9 {
					ph.problem("%s: portfolio cost %v worse than greedy %v", key, r.cost, w.greedy[j.subject])
				}
			}
			w.estimateBest(j.subject, r.best, est, ph, tr)
			if j.algo == "multi" && !w.reran[j.subject] {
				w.reran[j.subject] = true
				again, err := w.runJob(j, 1, spanRef{})
				if err != nil || again.cost != r.cost {
					ph.problem("%s: at 1 worker cost %v, at %d workers %v (err %v)", key, again.cost, workers, r.cost, err)
				}
			}
		}
	}
	var rates []float64
	for _, k := range jobMs.keys {
		rates = append(rates, evals[k]/jobSec[k])
		ph.detail = append(ph.detail, pooledMetric("job_ms."+k, "ms", jobMs.by[k], 0.5),
			m("evals_per_s."+k, "1/s", evals[k]/jobSec[k]))
	}
	ph.e2e = []metric{
		jobMs.metric("op_p50_ms", "ms"),
		{Name: "tail_ms", Unit: "ms", Value: jobMs.geoQuantile(0.9), N: jobMs.count()},
		m("ops_per_s", "1/s", geomean(rates)),
		est.metric("estimate_p50_us", "us"),
	}
	nodes, chans := 0, 0
	for _, env := range w.envs {
		st := env.Graph.Stats()
		nodes, chans = nodes+st.BV, chans+st.Channels
	}
	n := float64(max(ph.attempted, 1))
	pj := float64(max(portfolioJobs, 1))
	ph.counts = []metric{
		m("core.nodes", "count", float64(nodes)), m("core.channels", "count", float64(chans)),
		m("partition.evals_per_op", "count", totalEvals/n),
		m("partition.rounds_mean", "count", float64(rounds)/pj),
		m("partition.legs_killed", "count", float64(killed)/pj),
		m("partition.legs_respawned", "count", float64(respawned)/pj),
		m("partition.kill_frac", "frac", float64(killed)/float64(max(strands, 1))),
		m("partition.partial_frac", "frac", float64(partial)/n),
		m("partition.cost_vs_greedy", "ratio", geomean(ratios)),
	}
	return ph
}

// estimateBest estimates a job's best partition, outside the job's time:
// the T-est of a search result, and a check that it estimates at all.
func (w *explore) estimateBest(i int, pt *core.Partition, est *timing, ph *phase, tr *tracer) {
	name, env := w.subs[i].name, w.envs[i]
	ex := tr.op("extra.estimate")
	defer ex.end()
	for k := 0; k < exploreEstimates; k++ {
		sp := ex.child("estimate.Report")
		t0 := time.Now()
		_, _, err := env.Estimate(pt, estimate.Options{})
		dt := time.Since(t0)
		sp.end()
		if err != nil {
			ph.problem("%s: best partition does not estimate: %v", name, err)
			return
		}
		est.add(name, float64(dt.Nanoseconds())/1e3)
	}
}

func (w *explore) check(tr *tracer) []string { return nil }

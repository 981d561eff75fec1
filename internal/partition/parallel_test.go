package partition

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/faultinject"
)

// TestParallelRandomMatchesSequential: sharding the candidate enumeration
// across legs and workers must reproduce the sequential Random result
// exactly — same best cost, same best partition — for every worker/leg
// count, because candidates are seeded per index, shards are contiguous,
// and ties break toward the earlier leg. Every cost term is active.
func TestParallelRandomMatchesSequential(t *testing.T) {
	g := benchGraph(t, 8, 5)
	g.Procs[0].SizeCon = 900
	mk := func() Config {
		cfg := config(g, Constraints{
			Deadline:   map[string]float64{"b0": 25},
			MaxBusRate: map[string]float64{"bus": 8},
		})
		cfg.Seed = 42
		cfg.MaxIters = 300
		return cfg
	}
	seq, err := Random(context.Background(), g, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []ParallelOptions{
		{Workers: 1, Legs: 1},
		{Workers: 1, Legs: 4},
		{Workers: 4, Legs: 4},
		{Workers: 4, Legs: 7},
		{Workers: 3},
		// Round options never split, stop or kill the shards.
		{Workers: 2, Legs: 5, RoundEvals: 16, MaxRounds: 2, KillMargin: 0.01, Share: true},
	} {
		cfg := mk()
		par, err := ParallelRandom(context.Background(), g, cfg, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if par.Cost != seq.Cost {
			t.Errorf("%+v: parallel cost %v != sequential %v", opt, par.Cost, seq.Cost)
		}
		if par.Best.String() != seq.Best.String() {
			t.Errorf("%+v: parallel best partition differs from sequential", opt)
		}
		if par.Evals != 300 || par.Report.Rounds != 1 {
			t.Errorf("%+v: evals = %d, rounds = %d; want 300, 1", opt, par.Evals, par.Report.Rounds)
		}
	}
}

// TestMultiStartLegsMatchDirectCalls: a one-round MultiStart runs each
// leg exactly as a direct single-threaded call of its algorithm under the
// leg's quota — greedyRotated, Anneal from a seeded random start, or a
// random shard — and merges them by lowest cost, ties to the lower leg
// index. The pair-swap probability reaches every anneal leg.
func TestMultiStartLegsMatchDirectCalls(t *testing.T) {
	ctx := context.Background()
	g := benchGraph(t, 8, 5)
	g.Procs[0].SizeCon = 900
	table, err := candidateTable(g)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	mk := func(maxEvals, iters int) Config {
		cfg := config(g, Constraints{Deadline: map[string]float64{"b0": 25}})
		cfg.Seed, cfg.MaxEvals, cfg.MaxIters = seed, maxEvals, iters
		return cfg
	}
	// direct runs leg of an nLegs plan on its own; it also returns the
	// leg's kind and the seed a fault in it must be reported with.
	direct := func(leg, nLegs int, cfg Config) (Result, string, int64) {
		nGreedy, nAnneal := (nLegs+2)/3, (nLegs+1)/3
		nRandom := nLegs - nGreedy - nAnneal
		cfg.MaxEvals = splitBudget(cfg.MaxEvals, nLegs)[leg]
		switch {
		case leg < nGreedy:
			res, err := greedyRotated(ctx, g, cfg, leg)
			if err != nil {
				t.Fatal(err)
			}
			return res, "greedy", seed
		case leg < nGreedy+nAnneal:
			a := leg - nGreedy
			init, err := randomStart(g, table, legSeed(seed, a))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = legSeed(seed, 1<<16+a)
			res, err := Anneal(ctx, init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res, "anneal", cfg.Seed
		}
		k, iters := leg-nGreedy-nAnneal, cfg.randomIters()
		res, err := randomShard(ctx, g, cfg, k*iters/nRandom, (k+1)*iters/nRandom)
		if err != nil {
			t.Fatal(err)
		}
		return res, "random", seed
	}
	str := func(r Result) string {
		if r.Best == nil {
			return "<nil>"
		}
		return r.Best.String()
	}

	for _, swap := range []float64{0, 0.3} {
		for _, nLegs := range []int{1, 2, 3, 4, 6, 7, 12} {
			for _, maxEvals := range []int{0, 7, 60, 500, 5000} {
				for _, iters := range []int{0, 3, 200} {
					for _, workers := range []int{1, 3} {
						label := fmt.Sprintf("swap=%v legs=%d maxEvals=%d iters=%d workers=%d", swap, nLegs, maxEvals, iters, workers)
						run := mk(maxEvals, iters)
						run.SwapProb = swap
						res, err := MultiStart(ctx, g, run, ParallelOptions{Workers: workers, Legs: nLegs})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						best, sum := -1, 0
						for i, leg := range res.Legs {
							cfg := mk(maxEvals, iters)
							cfg.SwapProb = swap
							want, _, _ := direct(i, nLegs, cfg)
							if leg.Cost != want.Cost || str(leg) != str(want) || leg.Evals != want.Evals || leg.Partial != want.Partial {
								t.Fatalf("%s: leg %d = (%v, %d evals, partial %v), direct call (%v, %d, %v)",
									label, i, leg.Cost, leg.Evals, leg.Partial, want.Cost, want.Evals, want.Partial)
							}
							if want.Best != nil && (best < 0 || want.Cost < res.Legs[best].Cost) {
								best = i
							}
							sum += want.Evals
						}
						if res.BestLeg != best || res.Cost != res.Legs[best].Cost || res.Evals != sum || res.Report.Rounds != 1 {
							t.Fatalf("%s: merged leg %d cost %v evals %d rounds %d; want leg %d, %d evals, 1 round",
								label, res.BestLeg, res.Cost, res.Evals, res.Report.Rounds, best, sum)
						}
					}
				}
			}
		}
	}

	// A fault is reported with the seed that reproduces its leg: the run
	// seed for greedy and random legs, the run seed of an anneal leg.
	const nLegs = 7
	cfg := mk(0, 50)
	cfg.Eval.Hook = &faultinject.Injector{PanicProb: 1}
	res, _ := MultiStart(ctx, g, cfg, ParallelOptions{Workers: 3, Legs: nLegs})
	if len(res.Report.Panics) != nLegs {
		t.Fatalf("%d panics, want %d", len(res.Report.Panics), nLegs)
	}
	for i, p := range res.Report.Panics {
		_, kind, wantSeed := direct(i, nLegs, mk(0, 50))
		ip, _ := p.Value.(*faultinject.Panic)
		if p.Leg != i || p.Kind != kind || p.Seed != wantSeed || ip == nil || ip.Seed != wantSeed {
			t.Errorf("panic %d: leg %d %s seed %d, want leg %d %s seed %d", i, p.Leg, p.Kind, p.Seed, i, kind, wantSeed)
		}
	}
}

// TestParallelEvalsAggregation: the merged Evals equals the sum over legs,
// and the caller's (prototype) evaluator is credited with the same total.
func TestParallelEvalsAggregation(t *testing.T) {
	g := benchGraph(t, 6, 4)
	cfg := config(g, Constraints{})
	cfg.Seed = 5
	cfg.MaxIters = 120
	before := cfg.Eval.Evals
	res, err := ParallelRandom(context.Background(), g, cfg, ParallelOptions{Workers: 4, Legs: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, leg := range res.Legs {
		sum += leg.Evals
	}
	if res.Evals != sum {
		t.Errorf("merged Evals %d != Σ leg Evals %d", res.Evals, sum)
	}
	if got := cfg.Eval.Evals - before; got != sum {
		t.Errorf("prototype evaluator credited %d evals, want %d", got, sum)
	}
	if len(res.Legs) != 5 {
		t.Errorf("got %d leg results, want 5", len(res.Legs))
	}
}

// TestMultiStartDeterministic: same seed and leg plan ⇒ same best cost and
// partition, regardless of the worker count.
func TestMultiStartDeterministic(t *testing.T) {
	g := benchGraph(t, 9, 6)
	g.Procs[0].SizeCon = 700
	run := func(workers int) MultiResult {
		cfg := config(g, Constraints{Deadline: map[string]float64{"b0": 150}})
		cfg.Seed = 11
		cfg.MaxIters = 200
		res, err := MultiStart(context.Background(), g, cfg, ParallelOptions{Workers: workers, Legs: 6})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(4), run(4)
	if a.Cost != b.Cost || b.Cost != c.Cost {
		t.Errorf("costs differ across worker counts/reruns: %v %v %v", a.Cost, b.Cost, c.Cost)
	}
	if a.Best.String() != b.Best.String() || a.BestLeg != b.BestLeg {
		t.Errorf("best partition or winning leg differs across worker counts")
	}
	if err := a.Best.Validate(); err != nil {
		t.Errorf("best partition invalid: %v", err)
	}
}

// TestMultiStartOneLegEqualsGreedy: leg 0 is the canonical greedy
// construction, so a single-leg MultiStart is exactly Greedy.
func TestMultiStartOneLegEqualsGreedy(t *testing.T) {
	g := benchGraph(t, 7, 4)
	g.Procs[0].SizeCon = 600
	seq, err := Greedy(context.Background(), g, config(g, Constraints{}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(g, Constraints{})
	par, err := MultiStart(context.Background(), g, cfg, ParallelOptions{Workers: 1, Legs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost != seq.Cost || par.Best.String() != seq.Best.String() {
		t.Errorf("1-leg MultiStart (cost %v) != Greedy (cost %v)", par.Cost, seq.Cost)
	}
}

// TestMultiStartNotWorseThanGreedy: adding anneal/random legs can only
// improve (or tie) the merged cost relative to the greedy leg.
func TestMultiStartNotWorseThanGreedy(t *testing.T) {
	g := benchGraph(t, 10, 6)
	g.Procs[0].SizeCon = 500
	greedy, err := Greedy(context.Background(), g, config(g, Constraints{}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(g, Constraints{})
	cfg.Seed = 3
	res, err := MultiStart(context.Background(), g, cfg, ParallelOptions{Workers: 4, Legs: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > greedy.Cost+1e-9 {
		t.Errorf("MultiStart (%v) lost to its own greedy leg (%v)", res.Cost, greedy.Cost)
	}
}

// TestAnnealFinalTemperature pins the schedule-length fix: with the
// destination redrawn to exclude the current component, the temperature
// cools on every iteration and always lands at the designed end point
// (0.01), independent of how often the RNG would have redrawn.
func TestAnnealFinalTemperature(t *testing.T) {
	g := benchGraph(t, 6, 4)
	g.Procs[0].SizeCon = 500
	for _, seed := range []int64{1, 2, 99} {
		cfg := config(g, Constraints{})
		cfg.Seed = seed
		cfg.MaxIters = 777
		init := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
		if err := ApplyBusPolicy(init, cfg.Policy); err != nil {
			t.Fatal(err)
		}
		res, err := Anneal(context.Background(), init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.FinalTemp-0.01) > 1e-6 {
			t.Errorf("seed %d: final temperature %v, want 0.01 (schedule length depends on RNG redraws)", seed, res.FinalTemp)
		}
	}
}

// TestFeasibleDoesNotMutateEvaluator: Feasible computes with a value copy
// of the weights; the evaluator's own weights must never change, and
// Feasible must agree with a comm-disabled evaluator's Cost.
func TestFeasibleDoesNotMutateEvaluator(t *testing.T) {
	g := benchGraph(t, 5, 3)
	ev := NewEvaluator(g, Constraints{}, DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	before := ev.W
	ok, err := ev.Feasible(pt)
	if err != nil {
		t.Fatal(err)
	}
	if ev.W != before {
		t.Errorf("Feasible mutated the evaluator's weights: %+v -> %+v", before, ev.W)
	}
	if !ok {
		t.Error("unconstrained all-software partition reported infeasible")
	}
	// Feasibility is "cost with Comm disabled is zero".
	w := before
	w.Comm = 0
	ref := NewEvaluator(g, Constraints{}, w, estimate.Options{})
	cost, err := ref.Cost(pt)
	if err != nil {
		t.Fatal(err)
	}
	if (cost == 0) != ok {
		t.Errorf("Feasible = %v disagrees with comm-disabled cost %v", ok, cost)
	}
}

// TestEvaluatorClonesConcurrently exercises per-goroutine evaluator clones
// under the race detector: clones share only the immutable graph.
func TestEvaluatorClonesConcurrently(t *testing.T) {
	g := benchGraph(t, 8, 5)
	proto := NewEvaluator(g, Constraints{}, DefaultWeights(), estimate.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ev := proto.Clone()
			pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
			for i := 0; i < 50; i++ {
				if _, err := ev.Cost(pt); err != nil {
					t.Error(err)
					return
				}
				if _, err := ev.Feasible(pt); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

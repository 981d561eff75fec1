package partition

// Tests for the adaptive portfolio orchestrator: barrier determinism at
// any worker count (sharing off and on), the never-worse-than-Greedy
// guarantee, monotone anytime curves, kill/respawn accounting, fault
// containment in respawned legs, budget discipline, the empty-shard
// report semantics, and which options turn rounds on.

import (
	"context"
	"testing"
	"time"

	"specsyn/internal/faultinject"
)

// adaptiveRun is one standard round-mode invocation for the determinism
// tests; kills are likely with the tight margin.
func adaptiveRun(t *testing.T, workers int, opt ParallelOptions) MultiResult {
	t.Helper()
	g := benchGraph(t, 9, 6)
	g.Procs[0].SizeCon = 700
	cfg := config(g, Constraints{Deadline: map[string]float64{"b0": 150}})
	cfg.Seed = 11
	cfg.MaxIters = 200
	opt.Workers = workers
	if opt.Legs == 0 {
		opt.Legs = 6
	}
	if opt.RoundEvals == 0 {
		opt.RoundEvals = 64
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 4
	}
	res, err := MultiStart(context.Background(), g, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameAdaptive asserts two runs are bit-identical in everything but wall
// clock: costs, partitions, winning leg, and every counter and curve
// point the report carries.
func sameAdaptive(t *testing.T, a, b MultiResult, label string) {
	t.Helper()
	if a.Cost != b.Cost || a.BestLeg != b.BestLeg || a.Best.String() != b.Best.String() {
		t.Errorf("%s: result differs: cost %v vs %v, leg %d vs %d", label, a.Cost, b.Cost, a.BestLeg, b.BestLeg)
	}
	ra, rb := a.Report, b.Report
	if ra.Rounds != rb.Rounds || ra.LegsKilled != rb.LegsKilled || ra.LegsRespawned != rb.LegsRespawned ||
		ra.Evals != rb.Evals || ra.LegsCompleted != rb.LegsCompleted {
		t.Errorf("%s: report differs: %s vs %s", label, ra, rb)
	}
	if len(ra.Curve) != len(rb.Curve) {
		t.Fatalf("%s: curve lengths differ: %d vs %d", label, len(ra.Curve), len(rb.Curve))
	}
	for i := range ra.Curve {
		if ra.Curve[i].BestCost != rb.Curve[i].BestCost || ra.Curve[i].Evals != rb.Curve[i].Evals {
			t.Errorf("%s: curve point %d differs: %+v vs %+v", label, i, ra.Curve[i], rb.Curve[i])
		}
	}
}

// TestAdaptiveDeterministicAcrossWorkers: cross-leg decisions happen only
// at round barriers in leg order, so the adaptive engine is reproducible
// at ANY worker count — sharing off and on.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	for _, share := range []bool{false, true} {
		opt := ParallelOptions{Share: share, KillMargin: 0.05}
		a := adaptiveRun(t, 1, opt)
		b := adaptiveRun(t, 4, opt)
		c := adaptiveRun(t, 4, opt)
		label := "share=off"
		if share {
			label = "share=on"
		}
		sameAdaptive(t, a, b, label+" workers 1 vs 4")
		sameAdaptive(t, b, c, label+" rerun")
		if err := a.Best.Validate(); err != nil {
			t.Errorf("%s: best partition invalid: %v", label, err)
		}
	}
}

// TestAdaptiveNotWorseThanGreedy: leg 0's first round is the canonical
// uncapped greedy construction and strand bests only improve, so the
// merged adaptive result can never be worse than Greedy.
func TestAdaptiveNotWorseThanGreedy(t *testing.T) {
	g := benchGraph(t, 9, 6)
	g.Procs[0].SizeCon = 700
	cons := Constraints{Deadline: map[string]float64{"b0": 150}}
	seq, err := Greedy(context.Background(), g, config(g, cons))
	if err != nil {
		t.Fatal(err)
	}
	for _, share := range []bool{false, true} {
		cfg := config(g, cons)
		cfg.Seed = 11
		res, err := MultiStart(context.Background(), g, cfg,
			ParallelOptions{Workers: 4, Legs: 6, Share: share, RoundEvals: 64, MaxRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > seq.Cost+1e-9 {
			t.Errorf("share=%v: adaptive cost %v worse than Greedy %v", share, res.Cost, seq.Cost)
		}
	}
}

// TestAdaptiveCurveMonotone: the incumbent trajectory never worsens and
// the evaluation axis is strictly increasing, one point per round.
func TestAdaptiveCurveMonotone(t *testing.T) {
	res := adaptiveRun(t, 4, ParallelOptions{Share: true, KillMargin: 0.05})
	rep := res.Report
	if rep.Rounds == 0 || len(rep.Curve) != rep.Rounds {
		t.Fatalf("rounds %d, curve %d points", rep.Rounds, len(rep.Curve))
	}
	for i := 1; i < len(rep.Curve); i++ {
		if rep.Curve[i].BestCost > rep.Curve[i-1].BestCost {
			t.Errorf("curve not monotone at round %d: %v > %v", i, rep.Curve[i].BestCost, rep.Curve[i-1].BestCost)
		}
		if rep.Curve[i].Evals <= rep.Curve[i-1].Evals {
			t.Errorf("curve evals not increasing at round %d", i)
		}
	}
	if last := rep.Curve[len(rep.Curve)-1]; last.BestCost != res.Cost || last.Evals != rep.Evals {
		t.Errorf("curve end (%v, %d) != merged result (%v, %d)", last.BestCost, last.Evals, res.Cost, rep.Evals)
	}
}

// TestAdaptiveKillRespawn: with a tight margin laggards are killed and
// respawned; the counters are consistent and deterministic, and killed
// strands still contribute their pre-kill bests to the merge.
func TestAdaptiveKillRespawn(t *testing.T) {
	opt := ParallelOptions{KillMargin: 0.001, MaxRounds: 6}
	res := adaptiveRun(t, 4, opt)
	rep := res.Report
	if rep.LegsKilled == 0 {
		t.Fatalf("no kills with a 0.1%% margin: %s", rep)
	}
	if rep.LegsRespawned == 0 || rep.LegsRespawned > rep.LegsKilled+len(rep.Panics)+len(rep.Errors) {
		t.Errorf("respawn count %d inconsistent with %d kills", rep.LegsRespawned, rep.LegsKilled)
	}
	if len(res.Legs) != rep.LegsPlanned {
		t.Errorf("per-leg results: %d, planned %d", len(res.Legs), rep.LegsPlanned)
	}
	for i, leg := range res.Legs {
		if leg.Best != nil && leg.Cost < res.Cost {
			t.Errorf("leg %d beat the merged result: %v < %v", i, leg.Cost, res.Cost)
		}
	}
	sameAdaptive(t, res, adaptiveRun(t, 2, opt), "kill/respawn determinism")
}

// TestAdaptiveRespawnPanics: a leg that panics on a deterministic
// schedule — including in its respawned trajectories — is contained every
// time, recorded with its per-step seed, and the rest of the portfolio
// finishes deterministically. This is the orchestrator's -race target.
func TestAdaptiveRespawnPanics(t *testing.T) {
	run := func(workers int) MultiResult {
		g := benchGraph(t, 8, 5)
		cfg := config(g, Constraints{})
		cfg.Seed = 7
		cfg.MaxIters = 200
		cfg.Eval.Hook = &faultinject.Injector{PanicLegs: []int{1}, PanicAtEval: 3}
		res, err := MultiStart(context.Background(), g, cfg,
			ParallelOptions{Workers: workers, Legs: 5, Share: true, RoundEvals: 48, MaxRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(3)
	rep := res.Report
	if len(rep.Panics) < 2 {
		t.Fatalf("leg 1 should panic in its original and respawned trajectories; got %d panics", len(rep.Panics))
	}
	for _, p := range rep.Panics {
		if p.Leg != 1 {
			t.Errorf("panic recorded for leg %d, injected only into leg 1", p.Leg)
		}
	}
	if rep.LegsRespawned == 0 {
		t.Error("panicking leg was never respawned")
	}
	completeMapping(t, res.Result)
	sameAdaptive(t, res, run(1), "panic containment determinism")
}

// TestAdaptiveBudget: a global MaxEvals budget is dealt out per round and
// stops the run with Partial set; the overshoot is bounded by one grace
// evaluation per leg, as in a one-round run. A round deals the smaller of
// RoundEvals per live leg and what is left of the budget; at RoundEvals
// 2^62 the product of the two wraps to 0, an unlimited quota, unless the
// deal avoids forming it.
func TestAdaptiveBudget(t *testing.T) {
	g := benchGraph(t, 9, 6)
	cfg := config(g, Constraints{})
	cfg.Seed = 3
	cfg.MaxEvals = 200
	const nLegs = 4
	for _, roundEvals := range []int{64, 1 << 62} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := MultiStart(ctx, g, cfg,
			ParallelOptions{Workers: 4, Legs: nLegs, RoundEvals: roundEvals, MaxRounds: 8})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Evals > 200+nLegs || res.Report.Evals > 200+nLegs {
			t.Errorf("RoundEvals %d: budget 200 overspent: %d evals", roundEvals, res.Report.Evals)
		}
		if !res.Partial || !res.Report.Partial {
			t.Errorf("RoundEvals %d: budget-exhausted adaptive run not marked partial", roundEvals)
		}
		completeMapping(t, res.Result)
	}
}

// TestParallelEmptyShardSemantics pins the satellite contract: a
// zero-width random shard (lo == hi) runs, contributes no candidate, and
// still counts as a completed leg — in one-round and round-mode runs, at
// several worker counts.
func TestParallelEmptyShardSemantics(t *testing.T) {
	g := benchGraph(t, 6, 3)
	const iters = 3
	mkCfg := func() Config {
		cfg := config(g, Constraints{})
		cfg.Seed = 5
		cfg.MaxIters = iters
		return cfg
	}
	seq, err := Random(context.Background(), g, mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	// ParallelRandom: 8 shards over 3 candidates, 5 empty. Round mode: 12
	// legs → 4 random shards over 3 candidates, at least one empty; empty
	// shards finish in round one and are never killed or respawned.
	for _, tc := range []struct {
		name string
		legs int
		run  func(workers int) (MultiResult, error)
	}{
		{"random", 8, func(workers int) (MultiResult, error) {
			return ParallelRandom(context.Background(), g, mkCfg(), ParallelOptions{Workers: workers, Legs: 8})
		}},
		{"rounds", 12, func(workers int) (MultiResult, error) {
			return MultiStart(context.Background(), g, mkCfg(),
				ParallelOptions{Workers: workers, Legs: 12, RoundEvals: 32, MaxRounds: 3, KillMargin: -1})
		}},
	} {
		for _, workers := range []int{1, 2, 5} {
			res, err := tc.run(workers)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if rep.LegsCompleted != tc.legs || rep.LegsPartial != 0 || rep.LegsSkipped != 0 {
				t.Errorf("%s workers=%d: empty shards miscounted: %s", tc.name, workers, rep)
			}
			if rep.LegsKilled != 0 || rep.LegsRespawned != 0 {
				t.Errorf("%s workers=%d: empty shards killed/respawned: %s", tc.name, workers, rep)
			}
			if tc.name != "random" {
				continue
			}
			if rep.Evals != iters || res.Cost != seq.Cost {
				t.Errorf("workers=%d: %d evals, cost %v; want %d, sequential %v", workers, rep.Evals, res.Cost, iters, seq.Cost)
			}
			if rep.Rounds != 1 || len(rep.Curve) != 1 {
				t.Errorf("workers=%d: one-round run reported %d rounds, %d curve points", workers, rep.Rounds, len(rep.Curve))
			}
		}
	}
}

// TestAdaptiveAnyRoundOptionEnablesRounds: each round option on its own
// turns on round-based scheduling, with defaults for the others, so none
// of them is silently ignored.
func TestAdaptiveAnyRoundOptionEnablesRounds(t *testing.T) {
	g := benchGraph(t, 6, 4)
	for _, tc := range []struct {
		opt    ParallelOptions
		rounds int
	}{
		{ParallelOptions{}, 1},
		{ParallelOptions{Share: true}, 8},
		{ParallelOptions{KillMargin: -1}, 8},
		{ParallelOptions{RoundEvals: 16}, 8},
		{ParallelOptions{MaxRounds: 3}, 3},
	} {
		cfg := config(g, Constraints{})
		cfg.Seed = 3
		tc.opt.Workers, tc.opt.Legs = 2, 4
		res, err := MultiStart(context.Background(), g, cfg, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Rounds != tc.rounds {
			t.Errorf("%+v: %d rounds, want %d", tc.opt, res.Report.Rounds, tc.rounds)
		}
	}
}

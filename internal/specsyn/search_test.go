package specsyn

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"specsyn/internal/alloc"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
)

// TestNormalize: the defaults each preset fills in, and that a normalized
// spec normalizes to itself.
func TestNormalize(t *testing.T) {
	for _, tc := range []struct {
		in, want SearchSpec
	}{
		{SearchSpec{}, SearchSpec{Algo: "multi"}},
		{SearchSpec{Algo: "portfolio"}, SearchSpec{Algo: "portfolio",
			ParallelOptions: partition.ParallelOptions{Share: true, RoundEvals: 256, MaxRounds: 8}}},
		{SearchSpec{Algo: "portfolio", ParallelOptions: partition.ParallelOptions{RoundEvals: 64, MaxRounds: 3}},
			SearchSpec{Algo: "portfolio", ParallelOptions: partition.ParallelOptions{Share: true, RoundEvals: 64, MaxRounds: 3}}},
		// Legs default to workers before workers is clamped to the host.
		{SearchSpec{Algo: "random", ParallelOptions: partition.ParallelOptions{Workers: LegLimit}},
			SearchSpec{Algo: "random", ParallelOptions: partition.ParallelOptions{Workers: min(LegLimit, runtime.GOMAXPROCS(0)), Legs: LegLimit}}},
	} {
		got := tc.in
		if err := got.Normalize(); err != nil {
			t.Fatalf("%+v: %v", tc.in, err)
		}
		tc.want.Weights = partition.DefaultWeights()
		if got.Algo != tc.want.Algo || got.Weights != tc.want.Weights || got.ParallelOptions != tc.want.ParallelOptions {
			t.Errorf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
		again := got
		if err := again.Normalize(); err != nil || again.Algo != got.Algo || again.ParallelOptions != got.ParallelOptions {
			t.Errorf("Normalize is not idempotent on %+v: %+v, %v", got, again, err)
		}
	}
}

// TestNormalizeRefusesNonNumbers: the two float knobs only the flags can
// carry refuse what no search can use. (The counts' bounds are in
// cmd/specsyn's TestSearchRefusals, across all three front ends.)
func TestNormalizeRefusesNonNumbers(t *testing.T) {
	for _, spec := range []SearchSpec{
		{SwapProb: 1.5}, {SwapProb: -0.1}, {SwapProb: math.NaN()},
		{ParallelOptions: partition.ParallelOptions{KillMargin: math.NaN()}},
	} {
		if err := spec.Normalize(); err == nil {
			t.Errorf("Normalize accepted swap_prob %v, kill_margin %v", spec.SwapProb, spec.KillMargin)
		}
	}
}

// TestSearchSwapProbReachesAnneal: a spec's SwapProb reaches a single
// anneal run, which then equals Anneal from the greedy result with the
// same swap probability, and differs from the move-only run.
func TestSearchSwapProbReachesAnneal(t *testing.T) {
	env := load(t, "fuzzy")
	ctx := context.Background()
	cons := partition.Constraints{Deadline: map[string]float64{"fuzzymain": 500}}
	got, err := env.Search(ctx, SearchSpec{Algo: "anneal", Constraints: cons, Seed: 5, SwapProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := partition.Config{Eval: partition.NewEvaluator(env.Graph, cons, partition.DefaultWeights(), estimate.Options{}),
		Policy: partition.DefaultPolicy(env.Graph), Seed: 5, SwapProb: 0.3}
	greedy, err := partition.Greedy(ctx, env.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partition.Anneal(ctx, greedy.Best, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Evals != want.Evals || got.Best.String() != want.Best.String() {
		t.Errorf("Search anneal swap 0.3: cost %v, %d evals; Anneal: cost %v, %d evals", got.Cost, got.Evals, want.Cost, want.Evals)
	}
	moves, err := env.Search(ctx, SearchSpec{Algo: "anneal", Constraints: cons, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if moves.Best.String() == got.Best.String() && moves.Cost == got.Cost {
		t.Error("swap probability 0.3 changed nothing: it did not reach the anneal run")
	}
}

// TestExploreBusPolicyMatchesSearch: the allocation explorer and Search
// choose the bus policy the same way, so a two-bus candidate costs what a
// gm search on the same allocation finds. The deadline is tight enough
// that the policy matters: routing internal channels onto the shared bus
// costs about twice as much.
func TestExploreBusPolicyMatchesSearch(t *testing.T) {
	env := New()
	if err := env.LoadVHDLFile(filepath.Join(testdata, "fuzzy.vhd")); err != nil {
		t.Fatal(err)
	}
	if err := env.LoadProfileFile(filepath.Join(testdata, "fuzzy.prob")); err != nil {
		t.Fatal(err)
	}
	if err := env.LoadLibraryFile(filepath.Join(testdata, "twobus.lib")); err != nil {
		t.Fatal(err)
	}
	if err := env.Build(); err != nil {
		t.Fatal(err)
	}
	cons := partition.Constraints{Deadline: map[string]float64{"fuzzymain": 100}}
	res, err := env.Search(context.Background(), SearchSpec{Algo: "gm", Constraints: cons, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cand := alloc.Candidate{Name: "twobus", Procs: env.Lib.Procs, Mems: env.Lib.Mems, Buses: env.Lib.Buses}
	out := alloc.Explore(context.Background(), env.Graph, []alloc.Candidate{cand}, cons, partition.DefaultWeights())[0]
	if out.Err != nil || math.Float64bits(out.Cost) != math.Float64bits(res.Cost) {
		t.Errorf("two-bus candidate: explore cost %v (err %v), gm search cost %v", out.Cost, out.Err, res.Cost)
	}
}

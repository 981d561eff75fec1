package partition

// Regression tests for two latent search-loop bugs: the greedy
// constructor's mid-node budget-exhaustion path committing a nil
// component when no candidate has produced a finite cost yet, and
// GroupMigration's abandoned in-flight pass, which must keep the best
// improving prefix of committed moves.

import (
	"context"
	"math"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
)

// TestGreedyBudgetNaNFirstCandidate: with NaN weights every MoveCost is
// NaN, so no candidate ever beats the +Inf starting bound and bestComp is
// still nil when the budget dies mid-node. The old code passed that nil
// straight to Apply, tearing the mapping; the fixed path falls back to
// the node's current component, exactly like the end-of-node commit.
func TestGreedyBudgetNaNFirstCandidate(t *testing.T) {
	g := benchGraph(t, 6, 3)
	ev := NewEvaluator(g, Constraints{}, Weights{Size: math.NaN()}, estimate.Options{})
	// Binding the delta evaluator spends no evaluations, so the budget
	// dies exactly one MoveCost in.
	cfg := Config{Eval: ev, Policy: SingleBus(g.Buses[0]), Seed: 1, MaxEvals: 1}
	res, err := Greedy(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("budget-exhausted greedy with NaN costs failed: %v", err)
	}
	if !res.Partial {
		t.Error("budget-exhausted run not marked partial")
	}
	completeMapping(t, res)
}

// TestGroupMigrationAbandonedPassKeepsPrefix: a budget that dies midway
// through the first pass must not discard the moves already committed —
// the result is partial, strictly better than the start, and its cost
// survives a full recompute.
func TestGroupMigrationAbandonedPassKeepsPrefix(t *testing.T) {
	g := benchGraph(t, 10, 5)
	g.Procs[0].SizeCon = 600 // heavily violated by the all-on-cpu start
	cons := Constraints{Deadline: map[string]float64{"b0": 120}}
	cfg := config(g, cons)

	init := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	initCost, err := oracleEvaluator(t, g, cons).Cost(init)
	if err != nil {
		t.Fatal(err)
	}

	// A full first pass needs ~55 trial evaluations here (one lock round
	// per behavior); 25 dies in the middle of it, after a few commits.
	cfg.MaxEvals = 25
	res, err := GroupMigration(context.Background(), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("budget-abandoned pass not marked partial")
	}
	// The budget is polled per lock round, so the overshoot is bounded by
	// one round of trials: at most one per (node, alternate candidate).
	roundBound := 0
	for _, n := range g.Nodes {
		if c := len(Allowed(g, n)); c > 1 {
			roundBound += c - 1
		}
	}
	if res.Evals > cfg.MaxEvals+roundBound {
		t.Errorf("budget %d overspent past a lock round: %d evals", cfg.MaxEvals, res.Evals)
	}
	completeMapping(t, res)
	if res.Cost >= initCost {
		t.Errorf("abandoned pass lost its committed prefix: cost %v, start %v", res.Cost, initCost)
	}
	recost := oracleCost(t, cfg.Eval, res.Best, cfg.Policy)
	if math.Abs(recost-res.Cost) > 1e-9 {
		t.Errorf("reported cost %v != recomputed %v", res.Cost, recost)
	}
}

// oracleEvaluator builds a fresh evaluator matching config()'s weights
// for out-of-band cost checks.
func oracleEvaluator(t *testing.T, g *core.Graph, cons Constraints) *Evaluator {
	t.Helper()
	return NewEvaluator(g, cons, DefaultWeights(), estimate.Options{})
}

package bench

import (
	"context"
	"runtime"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/syngen"
)

// TestPortfolioNeverWorseThanGreedy sweeps the round-mode portfolio over
// the paper examples and generated subjects up to a thousand processes,
// each with its software processor capped so the trivial all-software
// partition violates. Every anytime curve must be monotone
// non-increasing, and the portfolio must never lose to the canonical
// greedy construction, which its leg 0's first round runs.
func TestPortfolioNeverWorseThanGreedy(t *testing.T) {
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	t.Logf("%-10s %6s %12s %12s %7s %7s %9s %7s", "", "nodes", "greedy", "portfolio", "rounds", "killed", "respawned", "evals")
	for _, name := range []string{"ans", "ether", "fuzzy", "vol", "syn-p32", "syn-p128", "syn-p1024"} {
		var g *core.Graph
		if name == "syn-p1024" {
			// The lean generator shape (one variable, no procedures or
			// arrays) stresses search scale, not statement-body size.
			g = synGraph(t, syngen.Config{
				Seed: 7, Processes: 1024, ProcsPer: -1, VarsPer: 1, ArraysPer: -1, StmtsPer: 2, SharedSigs: 1,
			})
			if len(g.Nodes) < 1024 {
				t.Fatalf("syn-p1024 has %d nodes, want at least 1024", len(g.Nodes))
			}
		} else {
			g = subjectGraph(t, name)
		}
		capSoftware(t, g)
		cfg := func() partition.Config {
			ev := partition.NewEvaluator(g, partition.Constraints{}, partition.DefaultWeights(), estimate.Options{})
			return partition.Config{Eval: ev, Policy: partition.SingleBus(g.Buses[0]), Seed: 42}
		}
		greedy, err := partition.Greedy(ctx, g, cfg())
		if err != nil {
			t.Fatalf("%s: greedy: %v", name, err)
		}
		res, err := partition.MultiStart(ctx, g, cfg(), partition.ParallelOptions{
			Workers: workers, Legs: 6, Share: true, RoundEvals: 256, MaxRounds: 5,
		})
		if err != nil {
			t.Fatalf("%s: portfolio: %v", name, err)
		}
		rep := res.Report
		t.Logf("%-10s %6d %12.4f %12.4f %7d %7d %9d %7d", name, len(g.Nodes), greedy.Cost, res.Cost,
			rep.Rounds, rep.LegsKilled, rep.LegsRespawned, rep.Evals)
		if res.Cost > greedy.Cost+1e-9 {
			t.Errorf("%s: portfolio cost %v worse than greedy %v", name, res.Cost, greedy.Cost)
		}
		for i := 1; i < len(rep.Curve); i++ {
			if rep.Curve[i].BestCost > rep.Curve[i-1].BestCost {
				t.Errorf("%s: anytime curve rises at round %d (%v > %v)",
					name, i, rep.Curve[i].BestCost, rep.Curve[i-1].BestCost)
			}
		}
	}
}

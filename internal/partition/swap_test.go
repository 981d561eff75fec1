package partition

// Tests for the pair-swap move kind: the differential oracle for
// SwapCost/ApplySwap on the delta evaluator, the eval-accounting
// contract, and the search that uses swaps (Anneal's swap proposals).

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
)

// allowedSets precomputes candidate-set membership for swap feasibility.
func allowedSets(g *core.Graph) map[*core.Node]map[core.Component]bool {
	out := make(map[*core.Node]map[core.Component]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		set := make(map[core.Component]bool)
		for _, c := range Allowed(g, n) {
			set[c] = true
		}
		out[n] = set
	}
	return out
}

// TestDeltaSwapMatchesOracle is the swap counterpart of the random-moves
// differential test: over long random sequences of SwapCost trials,
// ApplySwap commits and swap-backs — spanning many refresh intervals,
// degenerate same-component pairs included — every incremental swap cost
// must match a full recompute of the exchanged partition within 1e-9.
func TestDeltaSwapMatchesOracle(t *testing.T) {
	const steps = 1200
	for _, sc := range deltaScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			g := sc.graph
			ev := NewEvaluator(g, sc.cons, sc.w, sc.opt)
			oracle := NewEvaluator(g, sc.cons, sc.w, sc.opt)
			policy := sc.policy(g)
			pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
			d, err := ev.Delta(pt, policy)
			if err != nil {
				t.Fatal(err)
			}
			allowed := allowedSets(g)
			rng := rand.New(rand.NewSource(11))
			for step := 0; step < steps; step++ {
				var a, b *core.Node
				for tries := 0; ; tries++ {
					a = g.Nodes[rng.Intn(len(g.Nodes))]
					b = g.Nodes[rng.Intn(len(g.Nodes))]
					if allowed[a][pt.BvComp(b)] && allowed[b][pt.BvComp(a)] {
						break
					}
					if tries > 200 {
						t.Fatal("no feasible swap pair found")
					}
				}

				got, err := d.SwapCost(a, b)
				if err != nil {
					t.Fatalf("step %d: SwapCost(%s, %s): %v", step, a.Name, b.Name, err)
				}
				trial := pt.Clone()
				ca, cb := pt.BvComp(a), pt.BvComp(b)
				if err := trial.Assign(a, cb); err != nil {
					t.Fatal(err)
				}
				if err := trial.Assign(b, ca); err != nil {
					t.Fatal(err)
				}
				if err := ApplyBusPolicy(trial, policy); err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Cost(trial)
				if err != nil {
					t.Fatalf("step %d: oracle: %v", step, err)
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d: SwapCost(%s, %s) = %.15g, oracle %.15g (Δ %g)",
						step, a.Name, b.Name, got, want, got-want)
				}

				switch r := rng.Float64(); {
				case r < 0.45:
					if err := d.ApplySwap(a, b); err != nil {
						t.Fatalf("step %d: ApplySwap: %v", step, err)
					}
				case r < 0.55:
					// A swap is its own inverse: commit it, then undo it.
					for k := 0; k < 2; k++ {
						if err := d.ApplySwap(a, b); err != nil {
							t.Fatalf("step %d: ApplySwap: %v", step, err)
						}
					}
				}
				if step%97 == 0 {
					got, err := d.Cost()
					if err != nil {
						t.Fatalf("step %d: Cost: %v", step, err)
					}
					want := oracleCost(t, oracle, pt, policy)
					if math.Abs(got-want) > 1e-9 {
						t.Fatalf("step %d: committed Cost = %.15g, oracle %.15g", step, got, want)
					}
				}
			}
			got, err := d.Cost()
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleCost(t, oracle, pt, policy); math.Abs(got-want) > 1e-9 {
				t.Fatalf("final Cost = %.15g, oracle %.15g", got, want)
			}
		})
	}
}

// TestDeltaSwapEvalAccounting pins the swap eval/hook contract: SwapCost
// fires the hook once and counts one evaluation — degenerate swaps
// included — while ApplySwap counts nothing.
func TestDeltaSwapEvalAccounting(t *testing.T) {
	g := benchGraph(t, 6, 3)
	ev := NewEvaluator(g, Constraints{}, DefaultWeights(), estimate.Options{})
	hook := &countingHook{}
	ev.Hook = hook
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, SingleBus(g.Buses[0]))
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.NodeByName("b1"), g.NodeByName("b2")
	if err := d.Apply(b, g.ProcByName("asic")); err != nil {
		t.Fatal(err)
	}
	evalsBefore := ev.Evals
	for i := 0; i < 4; i++ {
		if _, err := d.SwapCost(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.SwapCost(a, a); err != nil { // degenerate: same node
		t.Fatal(err)
	}
	if got := ev.Evals - evalsBefore; got != 5 || hook.n != 5 {
		t.Fatalf("5 SwapCost calls counted %d evals, %d hook fires; want 5, 5", got, hook.n)
	}
	for i := 0; i < 6; i++ {
		if err := d.ApplySwap(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := ev.Evals - evalsBefore; got != 5 || hook.n != 5 {
		t.Fatalf("ApplySwap counted evals: %d evals, %d hook fires; want 5, 5", got, hook.n)
	}
}

// TestDeltaSwapUndo: a committed swap undone by swapping the pair back
// restores the exact mapping and the committed cost, including after a
// degenerate swap.
func TestDeltaSwapUndo(t *testing.T) {
	g := benchGraph(t, 6, 3)
	ev := NewEvaluator(g, Constraints{}, DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, SingleBus(g.Buses[0]))
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.NodeByName("b1"), g.NodeByName("v0")
	if err := d.Apply(b, g.MemByName("ram")); err != nil {
		t.Fatal(err)
	}
	before := pt.String()
	costBefore, err := d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplySwap(a, a); err != nil { // degenerate: commits nothing
		t.Fatal(err)
	}
	if pt.String() != before {
		t.Fatal("degenerate swap changed the mapping")
	}
	// b1 (cpu) and v0 (ram) cannot host each other's components — use two
	// behaviors instead so the exchange is legal.
	b = g.NodeByName("b3")
	if err := d.Apply(b, g.ProcByName("asic")); err != nil {
		t.Fatal(err)
	}
	before = pt.String()
	costBefore, err = d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplySwap(a, b); err != nil {
		t.Fatal(err)
	}
	if pt.BvComp(a).CompName() != "asic" || pt.BvComp(b).CompName() != "cpu" {
		t.Fatalf("swap did not exchange components: a on %s, b on %s",
			pt.BvComp(a).CompName(), pt.BvComp(b).CompName())
	}
	if err := d.ApplySwap(a, b); err != nil {
		t.Fatal(err)
	}
	if pt.String() != before {
		t.Fatal("swapping back did not restore the pre-swap mapping")
	}
	costAfter, err := d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costAfter-costBefore) > 1e-9 {
		t.Fatalf("cost after swapping back %v != pre-swap cost %v", costAfter, costBefore)
	}
}

// TestAnnealSwapMoves: with SwapProb set Anneal proposes pair exchanges;
// the run must stay valid — complete mapping, reported cost matching a
// full recompute of the returned best, never worse than the start.
func TestAnnealSwapMoves(t *testing.T) {
	g := benchGraph(t, 9, 5)
	g.Procs[0].SizeCon = 700
	cfg := config(g, Constraints{Deadline: map[string]float64{"b0": 150}})
	cfg.Seed = 5
	cfg.MaxIters = 400
	cfg.SwapProb = 0.4
	init := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	initCost, err := NewEvaluator(g, Constraints{Deadline: map[string]float64{"b0": 150}}, DefaultWeights(), estimate.Options{}).Cost(init)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Anneal(context.Background(), init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	completeMapping(t, res)
	if res.Cost > initCost {
		t.Errorf("anneal with swaps worsened the start: %v > %v", res.Cost, initCost)
	}
	recost := oracleCost(t, cfg.Eval, res.Best, cfg.Policy)
	if math.Abs(recost-res.Cost) > 1e-9 {
		t.Errorf("reported cost %v != recomputed %v", res.Cost, recost)
	}
}

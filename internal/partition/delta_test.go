package partition

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/faultinject"
)

// portedGraph is benchGraph plus an output port written by b0 — the shape
// that exercises port handling in the cut/IO accounting.
func portedGraph(t testing.TB, nBeh, nVar int) *core.Graph {
	t.Helper()
	g := benchGraph(t, nBeh, nVar)
	p := &core.Port{Name: "out", Dir: core.Out, Bits: 8}
	if err := g.AddPort(p); err != nil {
		t.Fatal(err)
	}
	if err := g.AddChannel(&core.Channel{Src: g.NodeByName("b0"), Dst: p, AccFreq: 3, Bits: 8, Tag: core.NoTag}); err != nil {
		t.Fatal(err)
	}
	return g
}

// twoBusGraph is portedGraph with an internal/external bus pair.
func twoBusGraph(t testing.TB, nBeh, nVar int) *core.Graph {
	t.Helper()
	g := portedGraph(t, nBeh, nVar)
	g.AddBus(&core.Bus{Name: "ext", BitWidth: 8, TS: 0.1, TD: 0.8})
	return g
}

// deltaScenario is one differential-test configuration.
type deltaScenario struct {
	name   string
	graph  *core.Graph
	cons   Constraints
	w      Weights
	opt    estimate.Options
	policy func(g *core.Graph) BusPolicy
}

func deltaScenarios(t testing.TB) []deltaScenario {
	single := func(g *core.Graph) BusPolicy { return SingleBus(g.Buses[0]) }
	intExt := func(g *core.Graph) BusPolicy { return InternalExternal(g.Buses[0], g.Buses[1]) }
	// Constraints tight enough that every cost term is non-zero somewhere
	// in the move sequences.
	cons := Constraints{
		Deadline:   map[string]float64{"b0": 25},
		MaxBusRate: map[string]float64{"bus": 8},
	}
	return []deltaScenario{
		{"basic", benchGraph(t, 8, 4), cons, DefaultWeights(), estimate.Options{}, single},
		{"ported", portedGraph(t, 8, 4), cons, DefaultWeights(), estimate.Options{}, single},
		{"intext", twoBusGraph(t, 8, 4), cons, DefaultWeights(), estimate.Options{}, intExt},
		{"clamp-sharing", benchGraph(t, 6, 3), cons, DefaultWeights(),
			estimate.Options{ClampBusBitrate: true, SharingFactor: 0.4}, single},
		{"minmode", benchGraph(t, 6, 3), cons, DefaultWeights(), estimate.Options{Mode: estimate.Min}, single},
		{"no-rate-weight", benchGraph(t, 6, 3), cons, Weights{Size: 1, Pins: 1, Time: 1, Comm: 0.1}, estimate.Options{}, single},
		// No active term reads an Exectime in the next two, so the
		// evaluator skips its Exectime upkeep; the tight software size
		// keeps the size term live.
		{"unconstrained", tightGraph(t, 8, 4), Constraints{}, DefaultWeights(), estimate.Options{}, single},
		{"deadline-no-time-weight", tightGraph(t, 8, 4), Constraints{Deadline: cons.Deadline},
			Weights{Size: 1, Pins: 1, Rate: 1, Comm: 0.1}, estimate.Options{}, single},
		{"deadline-only", tightGraph(t, 8, 4), Constraints{Deadline: cons.Deadline}, DefaultWeights(), estimate.Options{}, single},
		{"rate-only", tightGraph(t, 8, 4), Constraints{MaxBusRate: cons.MaxBusRate}, DefaultWeights(), estimate.Options{}, single},
	}
}

// tightGraph is portedGraph with the software processor capped below the
// all-software size, so the size term is non-zero for many mappings.
func tightGraph(t testing.TB, nBeh, nVar int) *core.Graph {
	g := portedGraph(t, nBeh, nVar)
	g.ProcByName("cpu").SizeCon = 700
	return g
}

// oracleCost is the full-recompute reference: policy applied to a clone,
// costed by a dedicated evaluator.
func oracleCost(t testing.TB, ev *Evaluator, pt *core.Partition, policy BusPolicy) float64 {
	t.Helper()
	cost, err := oracleTry(ev, pt, policy)
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

// TestDeltaMatchesOracleRandomMoves is the central differential property
// test: over long random move sequences — trials, commits, and commits
// undone by their inverse move, spanning many refresh intervals — every
// incremental cost must match the full recompute within 1e-9. Commits
// write through to pt, so the oracle must agree on it at any moment.
func TestDeltaMatchesOracleRandomMoves(t *testing.T) {
	const steps = 1200
	for _, sc := range deltaScenarios(t) {
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
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < steps; step++ {
				n := g.Nodes[rng.Intn(len(g.Nodes))]
				cands := Allowed(g, n)
				to := cands[rng.Intn(len(cands))]

				got, err := d.MoveCost(n, to)
				if err != nil {
					t.Fatalf("step %d: MoveCost(%s→%s): %v", step, n.Name, to.CompName(), err)
				}
				trial := pt.Clone()
				if err := trial.Assign(n, to); err != nil {
					t.Fatal(err)
				}
				want := oracleCost(t, oracle, trial, policy)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d: MoveCost(%s→%s) = %.15g, oracle %.15g (Δ %g)",
						step, n.Name, to.CompName(), got, want, got-want)
				}

				from := pt.BvComp(n)
				switch r := rng.Float64(); {
				case r < 0.45:
					if err := d.Apply(n, to); err != nil {
						t.Fatalf("step %d: Apply: %v", step, err)
					}
				case r < 0.55:
					if err := d.Apply(n, to); err != nil {
						t.Fatalf("step %d: Apply: %v", step, err)
					}
					if err := d.Apply(n, from); err != nil {
						t.Fatalf("step %d: inverse Apply: %v", step, err)
					}
				}
				if step%97 == 0 {
					got, err := d.Cost()
					if err != nil {
						t.Fatalf("step %d: Cost: %v", step, err)
					}
					if want := oracleCost(t, oracle, pt, policy); math.Abs(got-want) > 1e-9 {
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

// countingHook counts BeforeEval calls.
type countingHook struct{ n int }

func (h *countingHook) BeforeEval() error                  { h.n++; return nil }
func (h *countingHook) ForLeg(int, int64) faultinject.Hook { return h }

// TestDeltaEvalAccounting pins the eval/hook contract: MoveCost and Cost
// each fire the hook once and count one evaluation; Rebind and Apply count
// nothing.
func TestDeltaEvalAccounting(t *testing.T) {
	g := benchGraph(t, 6, 3)
	ev := NewEvaluator(g, Constraints{}, DefaultWeights(), estimate.Options{})
	hook := &countingHook{}
	ev.Hook = hook
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, SingleBus(g.Buses[0]))
	if err != nil {
		t.Fatal(err)
	}
	if hook.n != 0 || ev.Evals != 0 {
		t.Fatalf("binding the delta evaluator counted evals: hook %d, evals %d", hook.n, ev.Evals)
	}
	n := g.NodeByName("b1")
	cpu, asic := g.ProcByName("cpu"), g.ProcByName("asic")
	for i := 0; i < 5; i++ {
		if _, err := d.MoveCost(n, asic); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := d.Apply(n, asic); err != nil {
			t.Fatal(err)
		}
		if err := d.Apply(n, cpu); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Cost(); err != nil {
			t.Fatal(err)
		}
	}
	if hook.n != 7 || ev.Evals != 7 {
		t.Errorf("5 MoveCost + 6 Apply + 2 Cost: hook %d, evals %d; want 7, 7", hook.n, ev.Evals)
	}
}

// TestDeltaUndo checks that undoing a committed move by applying its
// inverse restores both the mapping and the cost.
func TestDeltaUndo(t *testing.T) {
	g := benchGraph(t, 6, 3)
	ev := NewEvaluator(g, Constraints{Deadline: map[string]float64{"b0": 25}}, DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, SingleBus(g.Buses[0]))
	if err != nil {
		t.Fatal(err)
	}
	before, err := d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NodeByName("b2")
	from := pt.BvComp(n)
	if err := d.Apply(n, g.ProcByName("asic")); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(n, from); err != nil {
		t.Fatal(err)
	}
	if pt.BvComp(n) != from {
		t.Errorf("inverse move left %s on %s, want %s", n.Name, pt.BvComp(n).CompName(), from.CompName())
	}
	after, err := d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(before-after) > 1e-9 {
		t.Errorf("cost after move and inverse = %.15g, want %.15g", after, before)
	}
}

// TestMoveCostZeroAllocs pins the steady-state allocation budget of the
// incremental hot path at zero, including the periodic full refresh.
func TestMoveCostZeroAllocs(t *testing.T) {
	g := benchGraph(t, 12, 6)
	ev := NewEvaluator(g, Constraints{
		Deadline:   map[string]float64{"b0": 25},
		MaxBusRate: map[string]float64{"bus": 8},
	}, DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, SingleBus(g.Buses[0]))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NodeByName("b3")
	asic := g.ProcByName("asic")
	for i := 0; i < 2*deltaRefreshInterval; i++ { // warm up past a refresh
		if _, err := d.MoveCost(n, asic); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3*deltaRefreshInterval, func() {
		if _, err := d.MoveCost(n, asic); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MoveCost allocates %v per op in steady state, want 0", allocs)
	}
}

// TestAnnealLoopAllocsFlat pins Anneal's per-iteration allocations at
// zero: a run of 2000 iterations allocates exactly what a run of 200
// does, its setup and result. It runs anneal, the loop without Anneal's
// final recomputation of the cost, whose allocations depend on which
// partition the run returns rather than on how many iterations it took.
func TestAnnealLoopAllocsFlat(t *testing.T) {
	g := tightGraph(t, 8, 4)
	init := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	all := Constraints{
		Deadline:   map[string]float64{"b0": 25},
		MaxBusRate: map[string]float64{"bus": 8},
	}
	for _, cons := range []Constraints{{}, all} {
		for _, swap := range []float64{0, 0.3} {
			ev := NewEvaluator(g, cons, DefaultWeights(), estimate.Options{})
			allocs := func(iters int) float64 {
				cfg := Config{Eval: ev, Policy: SingleBus(g.Buses[0]), Seed: 3, MaxIters: iters, SwapProb: swap}
				return testing.AllocsPerRun(5, func() {
					if _, err := anneal(context.Background(), init, cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(200), allocs(2000); short != long {
				t.Errorf("constrained %v, swap %v: Anneal allocates %v at 200 iterations but %v at 2000",
					cons.Deadline != nil, swap, short, long)
			}
		}
	}
}

// TestDeltaRebindRefreshesExectimes: a binding whose cost terms read no
// Exectime lets them go stale across commits; a later Rebind that
// activates a deadline must start from fresh values.
func TestDeltaRebindRefreshesExectimes(t *testing.T) {
	g := tightGraph(t, 8, 4)
	cons := Constraints{Deadline: map[string]float64{"b0": 25}}
	ev := NewEvaluator(g, cons, Weights{Size: 1, Pins: 1, Rate: 1, Comm: 0.1}, estimate.Options{})
	policy := SingleBus(g.Buses[0])
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, policy)
	if err != nil {
		t.Fatal(err)
	}
	asic := g.ProcByName("asic")
	for _, name := range []string{"b1", "b3", "b4"} {
		if err := d.Apply(g.NodeByName(name), asic); err != nil {
			t.Fatal(err)
		}
	}
	ev.W.Time = 1
	if d, err = ev.Delta(pt, policy); err != nil {
		t.Fatal(err)
	}
	oracle := NewEvaluator(g, cons, ev.W, estimate.Options{})
	got, err := d.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleCost(t, oracle, pt, policy); want == 0 || math.Abs(got-want) > 1e-9 {
		t.Fatalf("Cost after rebind = %.15g, oracle %.15g (want a live deadline term)", got, want)
	}
	for _, n := range g.Nodes {
		for _, to := range Allowed(g, n) {
			got, err := d.MoveCost(n, to)
			if err != nil {
				t.Fatal(err)
			}
			trial := pt.Clone()
			if err := trial.Assign(n, to); err != nil {
				t.Fatal(err)
			}
			if want := oracleCost(t, oracle, trial, policy); math.Abs(got-want) > 1e-9 {
				t.Fatalf("MoveCost(%s→%s) after rebind = %.15g, oracle %.15g", n.Name, to.CompName(), got, want)
			}
		}
	}
}

// TestCostCandidateRejectsMissingICT: a whole candidate that puts a node
// on a component without an ict weight fails with the estimator's error
// whether or not a cost term reads the node's Exectime.
func TestCostCandidateRejectsMissingICT(t *testing.T) {
	for _, cons := range []Constraints{{}, {Deadline: map[string]float64{"b0": 25}}} {
		g := benchGraph(t, 6, 3)
		delete(g.NodeByName("b2").ICT, "asic50")
		d, err := NewEvaluator(g, cons, DefaultWeights(), estimate.Options{}).
			Delta(core.AllToProcessor(g, g.Procs[0], g.Buses[0]), SingleBus(g.Buses[0]))
		if err != nil {
			t.Fatal(err)
		}
		ni, _ := d.deps.Index(g.NodeByName("b2"))
		d.asg.NodeComp[ni] = d.compIdx[g.ProcByName("asic")]
		if _, err := d.costCandidate(); err == nil || !strings.Contains(err.Error(), "ict weight") {
			t.Errorf("deadline %v: costCandidate err %v, want one mentioning the ict weight", cons.Deadline != nil, err)
		}
	}
}

// TestSearchResultsRecostCleanly: whatever a search reports as Result.Cost
// must match a fresh full recompute of Result.Best — the incremental path
// may never report a cost its partition doesn't have. Every search runs,
// each on every differential scenario.
func TestSearchResultsRecostCleanly(t *testing.T) {
	for _, sc := range deltaScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			g := sc.graph
			cfg := func() Config {
				return Config{Eval: NewEvaluator(g, sc.cons, sc.w, sc.opt), Policy: sc.policy(g), Seed: 1, MaxIters: 200}
			}
			init := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
			multi := func(res MultiResult, err error) (Result, error) { return res.Result, err }
			ctx := context.Background()
			searches := []struct {
				name string
				run  func() (Result, error)
			}{
				{"Greedy", func() (Result, error) { return Greedy(ctx, g, cfg()) }},
				{"GroupMigration", func() (Result, error) { return GroupMigration(ctx, init, cfg()) }},
				{"Anneal", func() (Result, error) { return Anneal(ctx, init, cfg()) }},
				{"Random", func() (Result, error) { return Random(ctx, g, cfg()) }},
				{"ParallelRandom", func() (Result, error) {
					return multi(ParallelRandom(ctx, g, cfg(), ParallelOptions{Workers: 2, Legs: 3}))
				}},
				{"ClusterGreedy", func() (Result, error) { return ClusterGreedy(ctx, g, cfg()) }},
				{"Exhaustive", func() (Result, error) { return Exhaustive(ctx, g, cfg()) }},
				{"MultiStart", func() (Result, error) {
					return multi(MultiStart(ctx, g, cfg(), ParallelOptions{Workers: 2, Legs: 6}))
				}},
				{"MultiStartRounds", func() (Result, error) {
					return multi(MultiStart(ctx, g, cfg(), ParallelOptions{Workers: 2, Legs: 6, RoundEvals: 64, MaxRounds: 3}))
				}},
			}
			oracle := NewEvaluator(g, sc.cons, sc.w, sc.opt)
			for _, s := range searches {
				res, err := s.run()
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				got, err := oracle.Cost(res.Best)
				if err != nil {
					t.Fatalf("%s: recost: %v", s.name, err)
				}
				if math.Abs(got-res.Cost) > 1e-9 {
					t.Errorf("%s reported cost %.15g but its Best recosts to %.15g", s.name, res.Cost, got)
				}
			}
		})
	}
}

// oracleRandom is the pointer-walking reference for Random: the same
// candidate enumeration, each candidate built in a Partition and costed
// by the full estimator.
func oracleRandom(t *testing.T, g *core.Graph, ev *Evaluator, policy BusPolicy, seed int64, iters int) float64 {
	t.Helper()
	table, err := candidateTable(g)
	if err != nil {
		t.Fatal(err)
	}
	pt := core.NewPartition(g)
	best := math.Inf(1)
	for i := 0; i < iters; i++ {
		s := candidateSampler(seed, i)
		for j, n := range g.Nodes {
			if err := pt.Assign(n, table[j][s.intn(len(table[j]))]); err != nil {
				t.Fatal(err)
			}
		}
		if cost := oracleCost(t, ev, pt, policy); cost < best {
			best = cost
		}
	}
	return best
}

// TestRandomMatchesOracle: Random costs its candidates on the snapshot,
// yet must land on the oracle enumeration's best cost — within summation
// tolerance, with exactly one evaluation per candidate and a Best that
// recosts to the reported cost.
func TestRandomMatchesOracle(t *testing.T) {
	const iters = 400
	for _, sc := range deltaScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			g := sc.graph
			oracle := NewEvaluator(g, sc.cons, sc.w, sc.opt)
			want := oracleRandom(t, g, oracle, sc.policy(g), 42, iters)
			cfg := Config{Eval: NewEvaluator(g, sc.cons, sc.w, sc.opt), Policy: sc.policy(g), Seed: 42, MaxIters: iters}
			got, err := Random(context.Background(), g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Cost-want) > 1e-9 {
				t.Errorf("Random cost = %.15g, oracle enumeration %.15g", got.Cost, want)
			}
			if got.Evals != iters {
				t.Errorf("Random evals = %d, want %d", got.Evals, iters)
			}
			if recost := oracleCost(t, oracle, got.Best, sc.policy(g)); math.Abs(recost-got.Cost) > 1e-9 {
				t.Errorf("Random reported %.15g but Best recosts to %.15g", got.Cost, recost)
			}
		})
	}
}

// TestSnapshotSharedAcrossClones pins the fleet-sharing contract: every
// clone of an evaluator compiles the design exactly once and hands out the
// same read-only *core.Snapshot, and concurrent incremental evaluation on
// sibling clones is race-free (this test is the -race CI target).
func TestSnapshotSharedAcrossClones(t *testing.T) {
	g := benchGraph(t, 8, 4)
	ev := NewEvaluator(g, Constraints{Deadline: map[string]float64{"b0": 25}}, DefaultWeights(), estimate.Options{})
	s0, err := ev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	clones := make([]*Evaluator, workers)
	for i := range clones {
		clones[i] = ev.Clone()
		si, err := clones[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if si != s0 {
			t.Fatalf("clone %d compiled its own snapshot", i)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(ev *Evaluator, seed int64) {
			defer wg.Done()
			pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
			d, err := ev.Delta(pt, SingleBus(g.Buses[0]))
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 300; step++ {
				n := g.Nodes[rng.Intn(len(g.Nodes))]
				cands := Allowed(g, n)
				to := cands[rng.Intn(len(cands))]
				if _, err := d.MoveCost(n, to); err != nil {
					t.Errorf("seed %d step %d: %v", seed, step, err)
					return
				}
				if rng.Float64() < 0.3 {
					if err := d.Apply(n, to); err != nil {
						t.Errorf("seed %d step %d: %v", seed, step, err)
						return
					}
				}
			}
		}(clones[i], int64(i+1))
	}
	wg.Wait()
}

// TestCommTermExcludesPortTraffic is the Comm-asymmetry regression: port
// traffic is external under every partition, so it must be excluded from
// the numerator AND the normalizer — a fully cut two-behavior graph with a
// large port write must score Comm exactly 1.
func TestCommTermExcludesPortTraffic(t *testing.T) {
	g := core.NewGraph("ports")
	b0 := &core.Node{Name: "b0", Kind: core.BehaviorNode, IsProcess: true}
	b1 := &core.Node{Name: "b1", Kind: core.BehaviorNode}
	for _, n := range []*core.Node{b0, b1} {
		n.SetICT("proc10", 1)
		n.SetICT("asic50", 1)
		n.SetSize("proc10", 10)
		n.SetSize("asic50", 10)
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	p := &core.Port{Name: "out", Dir: core.Out, Bits: 8}
	if err := g.AddPort(p); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*core.Channel{
		{Src: b0, Dst: b1, AccFreq: 1, Bits: 16, Tag: core.NoTag}, // 16 bits of internal traffic
		{Src: b0, Dst: p, AccFreq: 100, Bits: 8, Tag: core.NoTag}, // 800 bits of port traffic
	} {
		if err := g.AddChannel(c); err != nil {
			t.Fatal(err)
		}
	}
	g.AddProcessor(&core.Processor{Name: "cpu", TypeName: "proc10", SizeCon: 1e6})
	g.AddProcessor(&core.Processor{Name: "asic", TypeName: "asic50", Custom: true, SizeCon: 1e6})
	g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})

	pt := core.AllToProcessor(g, g.ProcByName("cpu"), g.Buses[0])
	if err := pt.Assign(b1, g.ProcByName("asic")); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(g, Constraints{}, Weights{Comm: 1}, estimate.Options{})
	cost, err := ev.Cost(pt)
	if err != nil {
		t.Fatal(err)
	}
	// All partitionable traffic (the 16-bit channel) is cut: Comm = 1.
	// Before the fix the 800 bits of port traffic diluted the fraction.
	if math.Abs(cost-1) > 1e-12 {
		t.Errorf("Comm with fully cut internal traffic = %v, want 1", cost)
	}
}

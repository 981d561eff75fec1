// Differential and performance coverage for the incremental delta-cost
// evaluator on the real paper examples (the internal/partition tests cover
// it on synthetic graphs). The differential test is the oracle contract of
// the tentpole: on every Fig. 4 example and the generated scaling
// subjects, long random move and swap sequences through the delta API must
// agree with a full recompute within 1e-9 — and it runs under -race in CI.

package bench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/syngen"
)

// deltaSubjectConstraints activates every cost term: a deadline on the
// first process and a bitrate cap on the first bus, both tight.
func deltaSubjectConstraints(g *core.Graph) partition.Constraints {
	cons := partition.Constraints{
		Deadline:   map[string]float64{},
		MaxBusRate: map[string]float64{g.Buses[0].Name: 1},
	}
	if procs := g.Processes(); len(procs) > 0 {
		cons.Deadline[procs[0].Name] = 1
	}
	return cons
}

// TestDeltaDifferentialExamples runs ≥1000 random steps per subject — a
// move or, a third of the time, a pair swap — checking every incremental
// MoveCost and SwapCost against a full-recompute oracle, committing about
// half of them, and periodically cross-checking the committed state. Each
// subject runs with every cost term active and with no constraints, the
// case where the evaluator keeps no Exectimes up to date.
func TestDeltaDifferentialExamples(t *testing.T) {
	const steps = 1000
	for _, sub := range exploreGraphs(t) {
		g := sub.g
		t.Run(sub.name, func(t *testing.T) {
			for _, run := range []struct {
				name string
				cons partition.Constraints
			}{{"constrained", deltaSubjectConstraints(g)}, {"unconstrained", partition.Constraints{}}} {
				t.Run(run.name, func(t *testing.T) {
					cons := run.cons
					ev := partition.NewEvaluator(g, cons, partition.DefaultWeights(), estimate.Options{})
					oracle := partition.NewEvaluator(g, cons, partition.DefaultWeights(), estimate.Options{})
					policy := partition.SingleBus(g.Buses[0])
					pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
					d, err := ev.Delta(pt, policy)
					if err != nil {
						t.Fatalf("Delta on %s: %v", sub.name, err)
					}
					allowed := map[*core.Node]map[core.Component]bool{}
					for _, n := range g.Nodes {
						allowed[n] = map[core.Component]bool{}
						for _, c := range partition.Allowed(g, n) {
							allowed[n][c] = true
						}
					}
					oracleCost := func(step int, what string, trial *core.Partition) float64 {
						if err := partition.ApplyBusPolicy(trial, policy); err != nil {
							t.Fatal(err)
						}
						want, err := oracle.Cost(trial)
						if err != nil {
							t.Fatalf("step %d: oracle %s: %v", step, what, err)
						}
						return want
					}
					rng := rand.New(rand.NewSource(11))
					for step := 0; step < steps; step++ {
						a, b := g.Nodes[rng.Intn(len(g.Nodes))], g.Nodes[rng.Intn(len(g.Nodes))]
						ca, cb := pt.BvComp(a), pt.BvComp(b)
						commit := rng.Float64() < 0.5
						trial := pt.Clone()
						if rng.Float64() < 1.0/3 && allowed[a][cb] && allowed[b][ca] {
							got, err := d.SwapCost(a, b)
							if err != nil {
								t.Fatalf("step %d: SwapCost(%s, %s): %v", step, a.Name, b.Name, err)
							}
							if err := trial.Assign(a, cb); err != nil {
								t.Fatal(err)
							}
							if err := trial.Assign(b, ca); err != nil {
								t.Fatal(err)
							}
							if want := oracleCost(step, "swap", trial); math.Abs(got-want) > 1e-9 {
								t.Fatalf("step %d: SwapCost(%s, %s) = %.15g, oracle %.15g", step, a.Name, b.Name, got, want)
							}
							if commit {
								if err := d.ApplySwap(a, b); err != nil {
									t.Fatalf("step %d: ApplySwap: %v", step, err)
								}
							}
						} else {
							cands := partition.Allowed(g, a)
							if len(cands) == 0 {
								continue
							}
							to := cands[rng.Intn(len(cands))]
							got, err := d.MoveCost(a, to)
							if err != nil {
								t.Fatalf("step %d: MoveCost(%s→%s): %v", step, a.Name, to.CompName(), err)
							}
							if err := trial.Assign(a, to); err != nil {
								t.Fatal(err)
							}
							if want := oracleCost(step, "move", trial); math.Abs(got-want) > 1e-9 {
								t.Fatalf("step %d: MoveCost(%s→%s) = %.15g, oracle %.15g (Δ %g)",
									step, a.Name, to.CompName(), got, want, got-want)
							}
							if commit {
								if err := d.Apply(a, to); err != nil {
									t.Fatalf("step %d: Apply: %v", step, err)
								}
							}
						}
						if step%127 == 0 {
							got, err := d.Cost()
							if err != nil {
								t.Fatalf("step %d: Cost: %v", step, err)
							}
							if want := oracleCost(step, "commit", pt.Clone()); math.Abs(got-want) > 1e-9 {
								t.Fatalf("step %d: committed Cost = %.15g, oracle %.15g", step, got, want)
							}
						}
					}
				})
			}
		})
	}
}

// subjectGraph resolves a test subject name: the paper examples by name,
// or "syn-pN" for a generated specification with N processes.
func subjectGraph(tb testing.TB, name string) *core.Graph {
	tb.Helper()
	var procs int
	if n, err := fmt.Sscanf(name, "syn-p%d", &procs); n == 1 && err == nil {
		return synGraph(tb, syngen.Config{Seed: 7, Processes: procs})
	}
	return loadEnv(tb, name).Graph
}

// moveBenchSetup binds a delta evaluator to an example, with every cost
// term active or with no constraints, and precomputes a rotation of
// (node, destination) moves so the benchmark loop measures only MoveCost.
func moveBenchSetup(tb testing.TB, name string, constrained bool) (*partition.DeltaEval, []*core.Node, []core.Component) {
	tb.Helper()
	g := subjectGraph(tb, name)
	cons := partition.Constraints{}
	if constrained {
		cons = deltaSubjectConstraints(g)
	}
	ev := partition.NewEvaluator(g, cons, partition.DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, partition.SingleBus(g.Buses[0]))
	if err != nil {
		tb.Fatal(err)
	}
	var nodes []*core.Node
	var dests []core.Component
	for _, n := range g.Nodes {
		for _, c := range partition.Allowed(g, n) {
			if c != pt.BvComp(n) {
				nodes = append(nodes, n)
				dests = append(dests, c)
				break
			}
		}
	}
	if len(nodes) == 0 {
		tb.Fatal("no movable nodes")
	}
	return d, nodes, dests
}

// moveCostSubjects are BenchmarkSnapshotMoveCost's subjects.
var moveCostSubjects = []string{"ans", "ether", "syn-p8", "syn-p32", "syn-p128"}

// TestSnapshotMoveCostZeroAllocs runs the BenchmarkSnapshotMoveCost trial
// on every subject, with every cost term active and with none, and
// requires zero heap allocations per steady-state move trial.
func TestSnapshotMoveCostZeroAllocs(t *testing.T) {
	for _, constrained := range []bool{true, false} {
		for _, name := range moveCostSubjects {
			d, nodes, dests := moveBenchSetup(t, name, constrained)
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				k := i % len(nodes)
				i++
				if _, err := d.MoveCost(nodes[k], dests[k]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s (constrained %t): %v allocs per move trial, want 0", name, constrained, allocs)
			}
		}
	}
}

// moveTrial returns BenchmarkSnapshotMoveCost's trial on name: call i
// costs move i of moveBenchSetup's rotation.
func moveTrial(tb testing.TB, name string, constrained bool) func(i int) {
	d, nodes, dests := moveBenchSetup(tb, name, constrained)
	return func(i int) {
		k := i % len(nodes)
		if _, err := d.MoveCost(nodes[k], dests[k]); err != nil {
			tb.Fatal(err)
		}
	}
}

// fullTrial returns BenchmarkFullCost's trial on name: a full recompute
// of the all-software partition's cost with every cost term active.
func fullTrial(tb testing.TB, name string) func(i int) {
	g := loadEnv(tb, name).Graph
	ev := partition.NewEvaluator(g, deltaSubjectConstraints(g), partition.DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	return func(int) {
		if _, err := ev.Cost(pt); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSnapshotMoveCostRatio times 2000 trials each of
// BenchmarkSnapshotMoveCost and BenchmarkFullCost on ans and ether, after
// one warm-up trial, and requires the snapshot trial to take at most half
// the time of the full recompute (measured: under a tenth). A ratio near 1
// means the compiled path regressed into pointer chasing. The race
// detector's instrumentation distorts the ratio, so it skips under -race.
func TestSnapshotMoveCostRatio(t *testing.T) {
	if raceEnabled() {
		t.Skip("timing ratio is not meaningful under -race")
	}
	const trials = 2000
	perTrial := func(trial func(int)) time.Duration {
		trial(0)
		start := time.Now()
		for i := 1; i <= trials; i++ {
			trial(i)
		}
		return time.Since(start) / trials
	}
	for _, name := range []string{"ans", "ether"} {
		snap, full := perTrial(moveTrial(t, name, true)), perTrial(fullTrial(t, name))
		ratio := float64(snap) / float64(full)
		t.Logf("%s: snapshot %v, full %v per trial, ratio %.3f", name, snap, full, ratio)
		if ratio > 0.5 {
			t.Errorf("%s: snapshot/full = %.2f, want at most 0.5", name, ratio)
		}
	}
}

// BenchmarkSnapshotMoveCost measures one incremental move trial — the
// partitioning inner loop — costed entirely from the compiled CSR
// snapshot, touching no Partition maps and no pointers. The subjects
// extend up the size axis (syn-p128 ≈ an order of magnitude past ether).
// Each runs with every cost term active and, under unconstrained/, with
// none, where a trial skips the Exectime upkeep.
// TestSnapshotMoveCostZeroAllocs holds every row at zero steady-state
// allocations, and TestSnapshotMoveCostRatio holds it well under
// BenchmarkFullCost.
func BenchmarkSnapshotMoveCost(b *testing.B) {
	run := func(name string, constrained bool) func(*testing.B) {
		return func(b *testing.B) {
			trial := moveTrial(b, name, constrained)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial(i)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "designs/s")
		}
	}
	for _, name := range moveCostSubjects {
		b.Run(name, run(name, true))
	}
	b.Run("unconstrained", func(b *testing.B) {
		for _, name := range moveCostSubjects {
			b.Run(name, run(name, false))
		}
	})
}

// BenchmarkFullCost is the same trial costed by full recompute — the
// before picture, and the denominator of the delta speedup claim.
func BenchmarkFullCost(b *testing.B) {
	for _, name := range []string{"ans", "ether"} {
		b.Run(name, func(b *testing.B) {
			trial := fullTrial(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial(i)
			}
		})
	}
}

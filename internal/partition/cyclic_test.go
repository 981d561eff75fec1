package partition

// Tests for the edges of the delta evaluator's input domain: recursive
// access graphs, which it accepts and costs exactly as lazily as the
// oracle does, and the degenerate inputs it refuses outright because the
// oracle fails on them too.

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
)

// cyclicGraph is benchGraph(6, 3) with an access-graph cycle closed by one
// extra channel of the given width, plus a process q that reaches no cycle
// and a process r that calls nothing but may carry the cycle itself.
func cyclicGraph(t *testing.T, src, dst string, bits int) *core.Graph {
	t.Helper()
	g := benchGraph(t, 6, 3)
	for _, name := range []string{"q", "r"} {
		n := &core.Node{Name: name, Kind: core.BehaviorNode, IsProcess: true}
		n.SetICT("proc10", 3)
		n.SetICT("asic50", 1)
		n.SetSize("proc10", 50)
		n.SetSize("asic50", 200)
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*core.Channel{
		{Src: g.NodeByName("q"), Dst: g.NodeByName("v0"), AccFreq: 4, Bits: 8, Tag: core.NoTag},
		{Src: g.NodeByName(src), Dst: g.NodeByName(dst), AccFreq: 1, Bits: bits, Tag: core.NoTag},
	} {
		if err := g.AddChannel(c); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// oracleTry is the full-recompute cost of pt under policy, errors included.
func oracleTry(ev *Evaluator, pt *core.Partition, policy BusPolicy) (float64, error) {
	clone := pt.Clone()
	if err := ApplyBusPolicy(clone, policy); err != nil {
		return 0, err
	}
	return ev.Cost(clone)
}

// TestDeltaCyclicAccessGraph: on a recursive access graph the delta
// evaluator binds, and every cost — trial, committed, or a whole search —
// matches the oracle to 1e-9 or fails exactly when the oracle fails, which
// is when a deadline or a rate-tracked channel reads the Exectime of a
// node that reaches the cycle. The control-only self-loop (a zero-bit
// recursive call) carries no traffic, yet the oracle still reads its
// source's Exectime for the bus rate.
func TestDeltaCyclicAccessGraph(t *testing.T) {
	graphs := []struct {
		name, src, dst string
		bits           int
		reach          string // a process that reaches the cycle
	}{
		{"self-loop", "b3", "b3", 8, "b0"},
		{"b5-b0", "b5", "b0", 8, "b0"},
		{"control-self-loop", "r", "r", 0, "r"},
	}
	for _, gc := range graphs {
		consSets := []struct {
			name      string
			cons      Constraints
			oracleErr bool
		}{
			{"none", Constraints{}, false},
			{"deadline-reaches-cycle", Constraints{Deadline: map[string]float64{gc.reach: 25}}, true},
			{"deadline-off-cycle", Constraints{Deadline: map[string]float64{"q": 2}}, false},
			{"bus-rate", Constraints{MaxBusRate: map[string]float64{"bus": 8}}, true},
		}
		for _, cc := range consSets {
			t.Run(gc.name+"/"+cc.name, func(t *testing.T) {
				g := cyclicGraph(t, gc.src, gc.dst, gc.bits)
				policy := SingleBus(g.Buses[0])
				oracle := NewEvaluator(g, cc.cons, DefaultWeights(), estimate.Options{})
				pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
				d, err := NewEvaluator(g, cc.cons, DefaultWeights(), estimate.Options{}).Delta(pt, policy)
				if err != nil {
					t.Fatalf("Delta refused a cyclic graph: %v", err)
				}
				check := func(what string, got float64, gotErr error, want float64, wantErr error) {
					t.Helper()
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("%s: delta err %v, oracle err %v", what, gotErr, wantErr)
					}
					if (wantErr != nil) != cc.oracleErr {
						t.Fatalf("%s: oracle err %v, want error %v", what, wantErr, cc.oracleErr)
					}
					if gotErr != nil && !strings.Contains(gotErr.Error(), "access graph cycle (recursion)") {
						t.Fatalf("%s: delta err %v, want the oracle's cycle error", what, gotErr)
					}
					if gotErr == nil && math.Abs(got-want) > 1e-9 {
						t.Fatalf("%s: delta %.15g, oracle %.15g", what, got, want)
					}
				}
				got, gotErr := d.Cost()
				want, wantErr := oracleTry(oracle, pt, policy)
				check("Cost", got, gotErr, want, wantErr)

				rng := rand.New(rand.NewSource(3))
				for step := 0; step < 200; step++ {
					n := g.Nodes[rng.Intn(len(g.Nodes))]
					cands := Allowed(g, n)
					to := cands[rng.Intn(len(cands))]
					got, gotErr := d.MoveCost(n, to)
					trial := pt.Clone()
					if err := trial.Assign(n, to); err != nil {
						t.Fatal(err)
					}
					want, wantErr := oracleTry(oracle, trial, policy)
					check("MoveCost", got, gotErr, want, wantErr)
					if rng.Float64() < 0.4 {
						if err := d.Apply(n, to); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, gotErr = d.Cost()
				want, wantErr = oracleTry(oracle, pt, policy)
				check("final Cost", got, gotErr, want, wantErr)

				cfg := func() Config {
					c := config(g, cc.cons)
					c.MaxIters = 100
					return c
				}
				init := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
				searches := map[string]func() (Result, error){
					"Greedy": func() (Result, error) { return Greedy(context.Background(), g, cfg()) },
					"Random": func() (Result, error) { return Random(context.Background(), g, cfg()) },
					"Anneal": func() (Result, error) { return Anneal(context.Background(), init, cfg()) },
					"MultiStart": func() (Result, error) {
						res, err := MultiStart(context.Background(), g, cfg(), ParallelOptions{Workers: 2, Legs: 3})
						return res.Result, err
					},
				}
				for name, run := range searches {
					res, err := run()
					if (err != nil) != cc.oracleErr {
						t.Fatalf("%s: err %v, oracle fails: %v", name, err, cc.oracleErr)
					}
					if err != nil {
						continue
					}
					want, err := oracleTry(oracle, res.Best, policy)
					if err != nil || math.Abs(res.Cost-want) > 1e-9 {
						t.Errorf("%s: cost %.15g, oracle recost %.15g (%v)", name, res.Cost, want, err)
					}
				}
			})
		}
	}
}

// TestDeltaRejectsWhatOracleRejects lists the inputs Delta refuses up
// front. On each, the oracle fails as soon as a deadline reads an
// Exectime; IgnoreRecursion, which no caller sets, is refused outright.
func TestDeltaRejectsWhatOracleRejects(t *testing.T) {
	deadline := Constraints{Deadline: map[string]float64{"b0": 25}}
	cases := []struct {
		name string
		mut  func(g *core.Graph, pt *core.Partition) *core.Partition
		opt  estimate.Options
		want string
	}{
		{"unmapped-node", func(g *core.Graph, pt *core.Partition) *core.Partition {
			out := core.NewPartition(g)
			for _, n := range g.Nodes {
				if n.Name != "b1" {
					if err := out.Assign(n, pt.BvComp(n)); err != nil {
						t.Fatal(err)
					}
				}
			}
			return out
		}, estimate.Options{}, "unmapped"},
		{"zero-width-bus", func(g *core.Graph, pt *core.Partition) *core.Partition {
			g.Buses[0].BitWidth = 0
			return pt
		}, estimate.Options{}, "bitwidth"},
		{"missing-ict", func(g *core.Graph, pt *core.Partition) *core.Partition {
			delete(g.NodeByName("b2").ICT, "proc10")
			return pt
		}, estimate.Options{}, "ict weight"},
		{"ignore-recursion", func(g *core.Graph, pt *core.Partition) *core.Partition { return pt },
			estimate.Options{IgnoreRecursion: true}, "IgnoreRecursion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := benchGraph(t, 6, 3)
			pt := tc.mut(g, core.AllToProcessor(g, g.Procs[0], g.Buses[0]))
			policy := SingleBus(g.Buses[0])
			if tc.opt == (estimate.Options{}) {
				if _, err := oracleTry(NewEvaluator(g, deadline, DefaultWeights(), tc.opt), pt, policy); err == nil {
					t.Fatal("oracle accepted the input")
				}
			}
			_, err := NewEvaluator(g, deadline, DefaultWeights(), tc.opt).Delta(pt, policy)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Delta err %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

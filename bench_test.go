// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§5):
//
//   - BenchmarkBuildSLIF/*    — Figure 4's T-slif column per example
//   - BenchmarkEstimate/*     — Figure 4's T-est column per example
//   - BenchmarkFormatSizes/*  — the SLIF vs ADD(VT) vs CDFG size comparison
//   - BenchmarkQuadratic*     — the n² computation-count comparison
//   - BenchmarkParallelExplore — the "thousands of designs" estimation claim
//   - BenchmarkEstimateTags / NoMemo — ablations of design choices
//
// cmd/slifbench prints the same results as human-readable tables.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"specsyn/internal/builder"
	"specsyn/internal/cdfg"
	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/interp"
	"specsyn/internal/partition"
	"specsyn/internal/profile"
	"specsyn/internal/sem"
	"specsyn/internal/specsyn"
	"specsyn/internal/syngen"
	"specsyn/internal/vhdl"
	"specsyn/internal/vt"
	"specsyn/internal/xform"
)

var examples = []string{"ans", "ether", "fuzzy", "vol"}

func readFile(b testing.TB, name string) string {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

// loadEnv builds one example end to end (outside the timed region).
func loadEnv(b testing.TB, name string) *specsyn.Env {
	b.Helper()
	env := specsyn.New()
	if err := env.LoadVHDLFile(filepath.Join("testdata", name+".vhd")); err != nil {
		b.Fatal(err)
	}
	if err := env.LoadProfileFile(filepath.Join("testdata", name+".prob")); err != nil {
		b.Fatal(err)
	}
	if err := env.LoadLibraryFile(filepath.Join("testdata", "std.lib")); err != nil {
		b.Fatal(err)
	}
	if name == "fuzzy" {
		if err := env.LoadOverridesFile(filepath.Join("testdata", "fuzzy.ov")); err != nil {
			b.Fatal(err)
		}
	}
	if err := env.Build(); err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkBuildSLIF measures Figure 4's T-slif: the complete pipeline from
// VHDL text to the fully annotated SLIF (parse, elaborate, extract accesses,
// compute frequencies, precompute weights, derive tags).
func BenchmarkBuildSLIF(b *testing.B) {
	for _, name := range examples {
		src := readFile(b, name+".vhd")
		prof, err := profile.Load(filepath.Join("testdata", name+".prob"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := builder.BuildVHDL(src, builder.Options{Profile: prof})
				if err != nil {
					b.Fatal(err)
				}
				if g.Stats().BV == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkEstimate measures Figure 4's T-est: one complete size, pin,
// bitrate and performance report for a processor-ASIC partition, from an
// already built SLIF.
func BenchmarkEstimate(b *testing.B) {
	for _, name := range examples {
		env := loadEnv(b, name)
		pt, err := env.DefaultPartition()
		if err != nil {
			b.Fatal(err)
		}
		asic := env.Graph.ProcByName("asic")
		for _, n := range env.Graph.Variables() {
			if n.StorageBits > 2048 {
				if err := pt.Assign(n, asic); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est := estimate.New(env.Graph, pt, estimate.Options{})
				if _, err := est.Report(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFormatSizes measures the cost of building each comparison format
// and reports the node counts the §5 table compares (as custom metrics).
func BenchmarkFormatSizes(b *testing.B) {
	src := readFile(b, "fuzzy.vhd")
	parse := func() *sem.Design {
		df, err := vhdl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		d, err := sem.Elaborate(df)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("slif", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			g, err := builder.BuildVHDL(src, builder.Options{})
			if err != nil {
				b.Fatal(err)
			}
			nodes = g.Stats().BV
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("vt", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = vt.Build(parse()).Stats().Nodes
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("cdfg", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = cdfg.Build(parse()).Stats().Nodes
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

// BenchmarkQuadraticClustering runs the actual O(n²) hierarchical
// clustering over the fuzzy SLIF-AG — the algorithm class the §5
// computation-count table reasons about. On the 35-node SLIF this is
// microseconds; on a 1100-node CDFG it would be ~1000× more work.
func BenchmarkQuadraticClustering(b *testing.B) {
	env := loadEnv(b, "fuzzy")
	b.ResetTimer()
	var comps int
	for i := 0; i < b.N; i++ {
		_, c, err := partition.HierarchicalClusters(env.Graph, 3)
		if err != nil {
			b.Fatal(err)
		}
		comps = c
	}
	b.ReportMetric(float64(comps), "paircomps")
}

// exploreGraphs collects the exploration subjects: the four paper examples
// plus generated specifications that extend the size axis past "ether".
func exploreGraphs(b testing.TB) []struct {
	name string
	g    *core.Graph
} {
	b.Helper()
	var subjects []struct {
		name string
		g    *core.Graph
	}
	for _, name := range append(examples, "syn-p8", "syn-p32") {
		subjects = append(subjects, struct {
			name string
			g    *core.Graph
		}{name, subjectGraph(b, name)})
	}
	return subjects
}

// synGraph builds a generated scaling subject with the standard two-way
// allocation (cpu + custom asic on one bus).
func synGraph(b testing.TB, cfg syngen.Config) *core.Graph {
	b.Helper()
	src := syngen.Generate(cfg)
	g, err := builder.BuildVHDL(src, builder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g.AddProcessor(&core.Processor{Name: "cpu", TypeName: "proc10"})
	g.AddProcessor(&core.Processor{Name: "asic", TypeName: "asic50", Custom: true})
	g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
	return g
}

func exploreConfig(g *core.Graph) partition.Config {
	ev := partition.NewEvaluator(g, partition.Constraints{}, partition.DefaultWeights(), estimate.Options{})
	return partition.Config{Eval: ev, Policy: partition.SingleBus(g.Buses[0]), Seed: 42, MaxIters: 1000}
}

// BenchmarkParallelExplore runs a 1000-partition random enumeration of
// each subject through the parallel multi-start engine at 1, 2 and 4
// workers, reporting designs per second. The best cost is asserted equal
// to sequential partition.Random's at the same seed at every worker count
// — the engine's determinism contract — so the only thing the worker axis
// changes is throughput.
func BenchmarkParallelExplore(b *testing.B) {
	for _, sub := range exploreGraphs(b) {
		seq, err := partition.Random(context.Background(), sub.g, exploreConfig(sub.g))
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			opt := partition.ParallelOptions{Workers: workers, Legs: 4}
			b.Run(fmt.Sprintf("%s/w%d", sub.name, workers), func(b *testing.B) {
				var res partition.MultiResult
				start := time.Now()
				for i := 0; i < b.N; i++ {
					var err error
					res, err = partition.ParallelRandom(context.Background(), sub.g, exploreConfig(sub.g), opt)
					if err != nil {
						b.Fatal(err)
					}
				}
				elapsed := time.Since(start)
				if res.Cost != seq.Cost {
					b.Fatalf("parallel best cost %v != sequential %v at equal seed", res.Cost, seq.Cost)
				}
				if elapsed > 0 {
					b.ReportMetric(float64(b.N*res.Evals)/elapsed.Seconds(), "designs/s")
				}
				b.ReportMetric(res.Cost, "bestcost")
			})
		}
	}
}

// BenchmarkSearchAlgorithms compares the search heuristics on the ans
// example under a size constraint.
func BenchmarkSearchAlgorithms(b *testing.B) {
	env := loadEnv(b, "ans")
	env.Graph.ProcByName("cpu").SizeCon = 4096
	for _, algo := range []string{"random", "greedy", "cluster", "gm", "anneal"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.PartitionSearch(context.Background(), algo, partition.Constraints{}, partition.DefaultWeights(), int64(i), 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateTags is the concurrency-tag ablation: the §3 baseline
// (sequential accesses) versus the §2.3 tag extension.
func BenchmarkEstimateTags(b *testing.B) {
	env := loadEnv(b, "ether")
	pt, err := env.DefaultPartition()
	if err != nil {
		b.Fatal(err)
	}
	for _, opt := range []struct {
		name string
		o    estimate.Options
	}{
		{"sequential", estimate.Options{}},
		{"tags", estimate.Options{UseTags: true}},
	} {
		b.Run(opt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est := estimate.New(env.Graph, pt, opt.o)
				if _, err := est.Report(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransform measures the transformation engine: inlining every
// single-caller helper of the ans example, which copies the graph once.
func BenchmarkTransform(b *testing.B) {
	env := loadEnv(b, "ans")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := xform.InlineAll(env.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialization measures .slif write+read of the largest example.
func BenchmarkSerialization(b *testing.B) {
	env := loadEnv(b, "ether")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := core.Write(&buf, env.Graph, nil); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkScaling extends Figure 4's size axis beyond the paper's largest
// example using generated specifications: T-slif (build) and T-est
// (estimate) as functions of specification size. Estimation must stay
// microseconds-flat-ish (it is linear in |BV|+|C|) even as specs grow 10×
// past "ether".
func BenchmarkScaling(b *testing.B) {
	for _, procs := range []int{2, 8, 32, 128} {
		src := syngen.Generate(syngen.Config{Seed: 7, Processes: procs})
		b.Run(fmt.Sprintf("build/p%d", procs), func(b *testing.B) {
			var bv, ch int
			for i := 0; i < b.N; i++ {
				g, err := builder.BuildVHDL(src, builder.Options{})
				if err != nil {
					b.Fatal(err)
				}
				bv, ch = g.Stats().BV, g.Stats().Channels
			}
			b.ReportMetric(float64(bv), "BV")
			b.ReportMetric(float64(ch), "C")
		})
		g, err := builder.BuildVHDL(src, builder.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cpu := &core.Processor{Name: "cpu", TypeName: "proc10"}
		g.AddProcessor(cpu)
		g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
		pt := core.AllToProcessor(g, cpu, g.Buses[0])
		b.Run(fmt.Sprintf("estimate/p%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := estimate.New(g, pt, estimate.Options{}).Report(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate measures the behavioral interpreter on the fuzzy
// controller: one benchmark iteration is one simulated step (one control
// pass of the loop once calibrated).
func BenchmarkSimulate(b *testing.B) {
	src := readFile(b, "fuzzy.vhd")
	df, err := vhdl.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := sem.Elaborate(df)
	if err != nil {
		b.Fatal(err)
	}
	m, err := interp.New(d)
	if err != nil {
		b.Fatal(err)
	}
	// Calibrate once outside the timed region.
	if err := m.Run(2, func(step int, m *interp.Machine) {
		if step == 0 {
			_ = m.SetPort("cal", 1)
		} else {
			_ = m.SetPort("cal", 0)
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i
		if err := m.Step(func(_ int, m *interp.Machine) {
			_ = m.SetPort("in1", int64(10+(step*37)%200))
			_ = m.SetPort("in2", int64(20+(step*53)%200))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Command slifbench regenerates the paper's evaluation tables:
//
//	-fig4     Figure 4: Lines/BV/C and T-slif / T-est per example
//	-formats  §5: SLIF-AG vs ADD(VT) vs CDFG node/edge counts (fuzzy)
//	-n2       §5: n² partitioning-computation counts per format
//	-explore  §5 claim: thousands of designs estimated per second
//	-buswidth bus-width sweep: exec time & I/O vs physical bus wires
//	-granularity §2.2's knob: basic blocks as procedures
//
// With no mode flag, every mode runs. -testdata points at the directory
// holding the four example specifications (default "testdata"); -json
// also writes the -explore rows to BENCH_explore.json. Incremental
// rebuild is not a paper table: TestCounts in the root package counts
// what it allocates, and the bench module's edit-loop workload times it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"specsyn/internal/builder"
	"specsyn/internal/cdfg"
	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/outline"
	"specsyn/internal/partition"
	"specsyn/internal/sem"
	"specsyn/internal/specsyn"
	"specsyn/internal/syngen"
	"specsyn/internal/vhdl"
	"specsyn/internal/vt"
)

var examples = []string{"ans", "ether", "fuzzy", "vol"}

func main() {
	dir := flag.String("testdata", "testdata", "directory with the example .vhd/.prob files")
	fig4 := flag.Bool("fig4", false, "regenerate the Figure 4 table")
	formats := flag.Bool("formats", false, "regenerate the format-size comparison")
	n2 := flag.Bool("n2", false, "regenerate the n^2 computation-count comparison")
	explore := flag.Bool("explore", false, "measure partitions estimated per second")
	jsonOut := flag.Bool("json", false, "also write the -explore measurements to BENCH_explore.json")
	workers := flag.Int("workers", 0, "worker pool size for the parallel explore run (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the explore run; a cut-short run reports its partial best (0 = none)")
	buswidth := flag.Bool("buswidth", false, "sweep bus widths on the fuzzy example")
	gran := flag.Bool("granularity", false, "basic-block granularity comparison")
	flag.Parse()

	all := !*fig4 && !*formats && !*n2 && !*explore && !*buswidth && !*gran
	if *fig4 || all {
		runFig4(*dir)
	}
	if *formats || all {
		runFormats(*dir)
	}
	if *n2 || all {
		runN2(*dir)
	}
	if *explore || all {
		runExplore(*dir, *workers, *timeout, *jsonOut)
	}
	if *buswidth || all {
		runBusWidth(*dir)
	}
	if *gran || all {
		runGranularity(*dir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slifbench:", err)
	os.Exit(1)
}

// loadEnv builds the SLIF environment for one example.
func loadEnv(dir, name string) *specsyn.Env {
	env := specsyn.New()
	if err := env.LoadVHDLFile(filepath.Join(dir, name+".vhd")); err != nil {
		fatal(err)
	}
	if err := env.LoadProfileFile(filepath.Join(dir, name+".prob")); err != nil {
		fatal(err)
	}
	if err := env.LoadLibraryFile(filepath.Join(dir, "std.lib")); err != nil {
		fatal(err)
	}
	if name == "fuzzy" {
		if err := env.LoadOverridesFile(filepath.Join(dir, "fuzzy.ov")); err != nil {
			fatal(err)
		}
	}
	if err := env.Build(); err != nil {
		fatal(err)
	}
	return env
}

func countLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}

// runFig4 reproduces the paper's Figure 4: for each example, the size of
// the spec and the SLIF, the time to build SLIF with all annotations, and
// the time to obtain size/pin/bitrate/performance estimates for a
// processor-ASIC partition.
func runFig4(dir string) {
	fmt.Println("Figure 4: time to build SLIF and to estimate from it")
	fmt.Println("(paper, Sparc 2: ans 2.20/0.00  ether 10.40/0.00  fuzzy 0.46/0.00  vol 0.34/0.00 s)")
	fmt.Println()
	fmt.Printf("%-8s %7s %5s %5s %12s %12s\n", "", "Lines", "BV", "C", "T-slif (s)", "T-est (s)")
	for _, name := range examples {
		env := loadEnv(dir, name)
		st := env.Graph.Stats()

		// The partition estimated: behaviors and scalars on the CPU,
		// the heaviest arrays on the ASIC side of the architecture.
		pt, err := env.DefaultPartition()
		if err != nil {
			fatal(err)
		}
		asic := env.Graph.ProcByName("asic")
		for _, n := range env.Graph.Variables() {
			if n.StorageBits > 2048 && asic != nil {
				if err := pt.Assign(n, asic); err != nil {
					fatal(err)
				}
			}
		}

		// T-est: one full size/pin/bitrate/performance report.
		rep, testDur, err := env.Estimate(pt, estimate.Options{})
		if err != nil {
			fatal(err)
		}
		_ = rep
		fmt.Printf("%-8s %7d %5d %5d %12.4f %12.6f\n",
			name, countLines(filepath.Join(dir, name+".vhd")),
			st.BV, st.Channels, env.BuildTime.Seconds(), testDur.Seconds())
	}
	fmt.Println()
}

// runFormats reproduces the §5 format-size comparison on the fuzzy example.
func runFormats(dir string) {
	fmt.Println("Format-size comparison (fuzzy example)")
	fmt.Println("(paper: SLIF-AG 35/56, ADD >450/400, CDFG >1100/900)")
	fmt.Println()
	src, err := os.ReadFile(filepath.Join(dir, "fuzzy.vhd"))
	if err != nil {
		fatal(err)
	}
	env := loadEnv(dir, "fuzzy")
	sg := env.Graph.Stats()
	vg, err := vt.BuildVHDL(string(src))
	if err != nil {
		fatal(err)
	}
	cg, err := cdfg.BuildVHDL(string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %8s %8s\n", "format", "nodes", "edges")
	fmt.Printf("%-10s %8d %8d\n", "SLIF-AG", sg.BV, sg.Channels)
	fmt.Printf("%-10s %8d %8d\n", "VT/ADD", vg.Stats().Nodes, vg.Stats().Edges)
	fmt.Printf("%-10s %8d %8d\n", "CDFG", cg.Stats().Nodes, cg.Stats().Edges)
	fmt.Println()
}

// runN2 reproduces the §5 computation-count argument: the cost of an n²
// partitioning algorithm on each format's node count, plus an actual
// clustering pass over the SLIF-AG.
func runN2(dir string) {
	fmt.Println("n^2 partitioning computations by format (fuzzy example)")
	fmt.Println("(paper: 1225 / 202500 / 1210000)")
	fmt.Println()
	src, err := os.ReadFile(filepath.Join(dir, "fuzzy.vhd"))
	if err != nil {
		fatal(err)
	}
	env := loadEnv(dir, "fuzzy")
	vg, err := vt.BuildVHDL(string(src))
	if err != nil {
		fatal(err)
	}
	cg, err := cdfg.BuildVHDL(string(src))
	if err != nil {
		fatal(err)
	}
	rows := []struct {
		name string
		n    int
	}{
		{"SLIF-AG", env.Graph.Stats().BV},
		{"VT/ADD", vg.Stats().Nodes},
		{"CDFG", cg.Stats().Nodes},
	}
	fmt.Printf("%-10s %8s %14s\n", "format", "n", "n^2")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %14d\n", r.name, r.n, r.n*r.n)
	}

	// And a real n² algorithm on the SLIF-AG: hierarchical clustering to
	// as many clusters as allocated components.
	start := time.Now()
	_, computations, err := partition.HierarchicalClusters(env.Graph, 3)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nactual clustering on SLIF-AG: %d pair computations in %v\n\n",
		computations, time.Since(start))
}

// exploreRecord is one subject's row of the explore run, as written to
// BENCH_explore.json.
type exploreRecord struct {
	Example        string  `json:"example"`
	Evals          int     `json:"evals"`
	SnapDesignsSec float64 `json:"snap_designs_per_sec"`
	ParDesignsSec  float64 `json:"par_designs_per_sec"`
	BestCost       float64 `json:"best_cost"`
	NsPerTrial     float64 `json:"ns_per_trial"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	Workers        int     `json:"workers"`
}

// subject is one named graph of the explore run.
type subject struct {
	name string
	g    *core.Graph
}

// exploreSubjects: the four paper examples plus generated scaling
// subjects, which get the standard two-processor/one-bus allocation.
func exploreSubjects(dir string) []subject {
	var subjects []subject
	for _, name := range examples {
		subjects = append(subjects, subject{name, loadEnv(dir, name).Graph})
	}
	for _, procs := range []int{8, 32} {
		g, err := builder.BuildVHDL(syngen.Generate(syngen.Config{Seed: 7, Processes: procs}), builder.Options{})
		if err != nil {
			fatal(err)
		}
		g.AddProcessor(&core.Processor{Name: "cpu", TypeName: "proc10"})
		g.AddProcessor(&core.Processor{Name: "asic", TypeName: "asic50", Custom: true})
		g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
		subjects = append(subjects, subject{fmt.Sprintf("syn-p%d", procs), g})
	}
	return subjects
}

// moveTrialStats measures the per-trial hot path of the snapshot engine on
// one graph: the nanoseconds and heap allocations of a single incremental
// move (steady state, past the refresh interval).
func moveTrialStats(g *core.Graph) (nsPerTrial, allocsPerOp float64) {
	ev := partition.NewEvaluator(g, partition.Constraints{}, partition.DefaultWeights(), estimate.Options{})
	pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
	d, err := ev.Delta(pt, partition.SingleBus(g.Buses[0]))
	if err != nil {
		fatal(err)
	}
	var node *core.Node
	var dest core.Component
	for _, n := range g.Nodes {
		for _, c := range partition.Allowed(g, n) {
			if c != pt.BvComp(n) {
				node, dest = n, c
				break
			}
		}
		if node != nil {
			break
		}
	}
	if node == nil {
		return 0, 0
	}
	trial := func() {
		if _, err := d.MoveCost(node, dest); err != nil {
			fatal(err)
		}
	}
	for i := 0; i < 256; i++ { // warm past a full refresh
		trial()
	}
	allocsPerOp = testing.AllocsPerRun(400, trial)
	const rounds = 4000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		trial()
	}
	return float64(time.Since(start).Nanoseconds()) / rounds, allocsPerOp
}

// runExplore demonstrates the estimation-speed claim: how many complete
// partitions per second the §3 equations evaluate on the compiled CSR
// arrays, sequentially and sharded across the parallel engine's worker
// pool. Both land bit-identically on the same best cost at the same seed;
// only the throughput changes.
func runExplore(dir string, workers int, timeout time.Duration, jsonOut bool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opt := partition.ParallelOptions{Workers: workers}
	fmt.Printf("Estimation throughput (\"algorithms that explore thousands of possible designs\"), %d workers\n", workers)
	fmt.Println()
	fmt.Printf("%-8s %6s %15s %14s %9s %12s\n", "", "evals", "snap designs/s", "par designs/s", "speedup", "best cost")
	var records []exploreRecord
	for _, sub := range exploreSubjects(dir) {
		name, g := sub.name, sub.g
		mkCfg := func() partition.Config {
			ev := partition.NewEvaluator(g, partition.Constraints{}, partition.DefaultWeights(), estimate.Options{})
			return partition.Config{Eval: ev, Policy: partition.SingleBus(g.Buses[0]), Seed: 42, MaxIters: 2000}
		}
		start := time.Now()
		seq, err := partition.Random(ctx, g, mkCfg())
		if err != nil {
			fatal(err)
		}
		seqDur := time.Since(start)
		start = time.Now()
		par, err := partition.ParallelRandom(ctx, g, mkCfg(), opt)
		if err != nil {
			fatal(err)
		}
		parDur := time.Since(start)
		// A deadline cuts the runs short at different points, so the
		// identity check only holds for complete runs.
		if seq.Partial || par.Report.Partial {
			fmt.Printf("%-8s (cut short by -timeout; partial bests: seq %.4f, par %.4f)\n", name, seq.Cost, par.Cost)
			continue
		}
		if par.Cost != seq.Cost {
			fatal(fmt.Errorf("%s: parallel best cost %v != sequential %v at equal seed", name, par.Cost, seq.Cost))
		}
		nsPerTrial, allocs := moveTrialStats(g)
		rec := exploreRecord{
			Example:        name,
			Evals:          seq.Evals,
			SnapDesignsSec: float64(seq.Evals) / seqDur.Seconds(),
			ParDesignsSec:  float64(par.Evals) / parDur.Seconds(),
			BestCost:       seq.Cost,
			NsPerTrial:     nsPerTrial,
			AllocsPerOp:    allocs,
			Workers:        workers,
		}
		records = append(records, rec)
		fmt.Printf("%-8s %6d %15.0f %14.0f %8.2fx %12.4f\n",
			name, seq.Evals, rec.SnapDesignsSec, rec.ParDesignsSec,
			seqDur.Seconds()/parDur.Seconds(), seq.Cost)
	}
	fmt.Println()
	if jsonOut {
		// The host travels with the numbers.
		data, err := json.MarshalIndent(struct {
			NProc      int             `json:"nproc"`
			GoMaxProcs int             `json:"gomaxprocs"`
			GoVersion  string          `json:"go_version"`
			Throughput []exploreRecord `json:"throughput"`
		}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), records}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_explore.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote BENCH_explore.json")
	}
}

// runBusWidth sweeps the physical bus width for a fixed hardware/software
// split of the fuzzy controller. TransferTime(c) = ceil(bits/width) × bdt
// (eq. 1), so widening the bus collapses multi-transfer accesses and the
// process execution time steps down, while IO(p) (eq. 6) — the pins the
// bus costs on every component it crosses — grows linearly. This is the
// size/performance trade the paper's I/O metric exists to expose.
func runBusWidth(dir string) {
	fmt.Println("Bus-width sweep (fuzzy, datapath on the ASIC)")
	fmt.Println()
	fmt.Printf("%8s %16s %10s\n", "width", "exectime (us)", "IO pins")
	for _, width := range []int{4, 8, 16, 32, 64} {
		env := loadEnv(dir, "fuzzy")
		g := env.Graph
		g.BusByName("sysbus").BitWidth = width
		pt, err := env.DefaultPartition()
		if err != nil {
			fatal(err)
		}
		asic := g.ProcByName("asic")
		for _, name := range []string{
			"evaluaterule", "convolve", "computecentroid", "min", "max",
			"mr1", "mr2", "tmr1", "tmr2", "conv", "trunc", "sum", "wsum",
		} {
			if n := g.NodeByName(name); n != nil {
				if err := pt.Assign(n, asic); err != nil {
					fatal(err)
				}
			}
		}
		est := estimate.New(g, pt, estimate.Options{})
		et, err := est.Exectime(g.NodeByName("fuzzymain"))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%8d %16.1f %10d\n", width, et, est.IO(asic))
	}
	fmt.Println()
}

// runGranularity demonstrates §2.2's granularity knob: "finer granularity
// can be obtained by treating basic blocks as procedures". Each example is
// built at process/procedure granularity and again with basic blocks
// outlined into procedures; the table shows how the SLIF grows and what a
// full estimate costs at each granularity.
func runGranularity(dir string) {
	fmt.Println("Granularity: processes/procedures vs basic blocks as procedures (§2.2)")
	fmt.Println()
	fmt.Printf("%-8s %12s %12s %14s %14s\n", "", "coarse BV/C", "fine BV/C", "T-est coarse", "T-est fine")
	for _, name := range examples {
		src, err := os.ReadFile(filepath.Join(dir, name+".vhd"))
		if err != nil {
			fatal(err)
		}
		coarse, err := builder.BuildVHDL(string(src), builder.Options{})
		if err != nil {
			fatal(err)
		}
		fineAST, err := vhdl.Parse(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s: reparse for outlining failed: %w", name, err))
		}
		fineDF := outline.Transform(fineAST, outline.Options{})
		fineD, err := sem.Elaborate(fineDF)
		if err != nil {
			fatal(err)
		}
		fine, err := builder.Build(fineD, builder.Options{})
		if err != nil {
			fatal(err)
		}
		// T-est of an all-software partition on a default allocation.
		tEst := func(g *core.Graph) time.Duration {
			cpu := &core.Processor{Name: "cpu", TypeName: "proc10"}
			g.AddProcessor(cpu)
			g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
			pt := core.AllToProcessor(g, cpu, g.Buses[0])
			start := time.Now()
			if _, err := estimate.New(g, pt, estimate.Options{}).Report(); err != nil {
				fatal(err)
			}
			return time.Since(start)
		}
		tc, tf := tEst(coarse), tEst(fine)
		fmt.Printf("%-8s %12s %12s %14v %14v\n", name,
			fmt.Sprintf("%d/%d", coarse.Stats().BV, coarse.Stats().Channels),
			fmt.Sprintf("%d/%d", fine.Stats().BV, fine.Stats().Channels),
			tc, tf)
	}
	fmt.Println()
}

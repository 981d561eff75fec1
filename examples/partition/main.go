// Constraint-driven partitioning of the answering machine: give the
// design a size-limited processor and a deadline on the controller, then
// compare the search algorithms — each evaluating hundreds of candidate
// partitions per run, which only SLIF's lookup-and-sum estimation makes
// practical (§5's "algorithms that explore thousands of possible designs").
//
// Run from the repository root:
//
//	go run ./examples/partition
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/specsyn"
)

func testdata(name string) string {
	for _, dir := range []string{"testdata", filepath.Join("..", "..", "testdata")} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	log.Fatalf("cannot locate testdata/%s; run from the repository root", name)
	return ""
}

func main() {
	env := specsyn.New()
	for _, step := range []error{
		env.LoadVHDLFile(testdata("ans.vhd")),
		env.LoadProfileFile(testdata("ans.prob")),
		env.LoadLibraryFile(testdata("std.lib")),
	} {
		if step != nil {
			log.Fatal(step)
		}
	}
	if err := env.Build(); err != nil {
		log.Fatal(err)
	}
	g := env.Graph

	// Tighten the architecture: small program memory on the cpu and a
	// deadline on the controller's pass.
	g.ProcByName("cpu").SizeCon = 4096
	cons := partition.Constraints{
		Deadline: map[string]float64{"ctrl": 3.5e6}, // 3.5 s per answered call
	}

	st := g.Stats()
	fmt.Printf("answering machine: %d nodes, %d channels; cpu limited to %d bytes\n\n",
		st.BV, st.Channels, int(g.ProcByName("cpu").SizeCon))

	fmt.Printf("%-10s %10s %10s %12s %10s\n", "algorithm", "cost", "evals", "designs/s", "feasible")
	for _, algo := range []string{"random", "greedy", "cluster", "gm", "anneal"} {
		start := time.Now()
		res, err := env.Search(context.Background(), specsyn.SearchSpec{Algo: algo, Constraints: cons, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		ev := partition.NewEvaluator(g, cons, partition.DefaultWeights(), estimate.Options{})
		feasible, err := ev.Feasible(res.Best)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %10.4f %10d %12.0f %10v\n",
			algo, res.Cost, res.Evals, float64(res.Evals)/dur.Seconds(), feasible)
	}

	// Show the winning mapping in detail.
	res, err := env.Search(context.Background(), specsyn.SearchSpec{Algo: "gm", Constraints: cons, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngroup-migration result:\n%s\n", res.Best)
	rep, _, err := env.Estimate(res.Best, estimate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
}

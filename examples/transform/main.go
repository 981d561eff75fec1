// Specification transformations on the volume instrument: procedure
// inlining and process merging directly on the SLIF graph, with
// annotation recomputation — the transformation task of §1 ("merging
// processes into a single process for implementation with a single
// controller"), demonstrated with the invariant the engine guarantees:
// total dynamic traffic per system iteration is preserved.
//
// Run from the repository root:
//
//	go run ./examples/transform
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"specsyn/internal/estimate"
	"specsyn/internal/specsyn"
	"specsyn/internal/xform"
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
		env.LoadVHDLFile(testdata("vol.vhd")),
		env.LoadProfileFile(testdata("vol.prob")),
		env.LoadLibraryFile(testdata("std.lib")),
	} {
		if step != nil {
			log.Fatal(step)
		}
	}
	if err := env.Build(); err != nil {
		log.Fatal(err)
	}
	report := func(label string) {
		st := env.Graph.Stats()
		fmt.Printf("%-28s %3d nodes %3d channels   traffic %8.1f bits/iter\n",
			label, st.BV, st.Channels, xform.Traffic(env.Graph))
	}
	report("original specification:")

	// 1. Inline every single-caller helper: the classic pre-synthesis
	// cleanup. Node and channel counts drop; traffic is invariant. Each
	// transform returns a new graph, which the session installs.
	g, inlined, err := xform.InlineAll(env.Graph)
	if err != nil {
		log.Fatal(err)
	}
	env.Graph = g
	report(fmt.Sprintf("after inlining %d helpers:", len(inlined)))
	fmt.Printf("  inlined: %v\n", inlined)

	// 2. Merge the two processes for a single-controller implementation.
	g, merged, err := xform.MergeProcesses(env.Graph, "volmain", "calproc", "volunit")
	if err != nil {
		log.Fatal(err)
	}
	env.Graph = g
	report("after merging the processes:")

	// The merged process's weights are the sums, so one controller runs
	// the whole instrument; estimate it.
	pt, err := env.DefaultPartition()
	if err != nil {
		log.Fatal(err)
	}
	rep, _, err := env.Estimate(pt, estimate.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsingle-controller estimate (process %s):\n%s", merged, rep)
}

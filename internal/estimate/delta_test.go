package estimate

import (
	"strings"
	"testing"

	"specsyn/internal/core"
)

// TestDepsOrderAndAffected checks the callee-first order and the
// transitive dependent sets on the reference graph:
//
//	main → sub → arr, main → v, main → out1 (port, no dependency)
func TestDepsOrderAndAffected(t *testing.T) {
	g := buildGraph(t)
	deps, err := NewDeps(g)
	if err != nil {
		t.Fatal(err)
	}
	if deps.Len() != len(g.Nodes) {
		t.Fatalf("Len = %d, want %d", deps.Len(), len(g.Nodes))
	}
	pos := map[string]int{}
	for k, i := range deps.Order() {
		pos[deps.Node(i).Name] = k
	}
	// Callees must come before callers.
	if !(pos["arr"] < pos["sub"] && pos["sub"] < pos["main"] && pos["v"] < pos["main"]) {
		t.Errorf("order is not callee-first: %v", pos)
	}
	affected := func(name string) []string {
		i, ok := deps.Index(g.NodeByName(name))
		if !ok {
			t.Fatalf("node %q not indexed", name)
		}
		var out []string
		for _, a := range deps.Affected(i) {
			out = append(out, deps.Node(a).Name)
		}
		return out
	}
	cases := map[string][]string{
		"arr":  {"arr", "sub", "main"},
		"v":    {"v", "main"},
		"sub":  {"sub", "main"},
		"main": {"main"},
	}
	for name, want := range cases {
		got := affected(name)
		if len(got) != len(want) {
			t.Errorf("Affected(%s) = %v, want %v", name, got, want)
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("Affected(%s) = %v, want %v", name, got, want)
				break
			}
		}
	}
}

// TestDepsMarksRecursion: a recursive access graph is indexed, with every
// node that reaches a cycle — its members and their callers — marked
// Cyclic and left out of Order, and Incr leaves those nodes uncomputed.
func TestDepsMarksRecursion(t *testing.T) {
	// caller → self-loop s; caller → x ⇄ y; leaf v reaches no cycle.
	g := core.NewGraph("cycles")
	var nodes []*core.Node
	for _, name := range []string{"caller", "s", "x", "y", "leaf", "v"} {
		n := &core.Node{Name: name, Kind: core.BehaviorNode, IsProcess: name == "caller"}
		if name == "v" {
			n.Kind = core.VariableNode
		}
		n.SetICT("t", 1)
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, e := range [][2]string{{"caller", "s"}, {"s", "s"}, {"caller", "x"}, {"x", "y"}, {"y", "x"}, {"caller", "leaf"}, {"leaf", "v"}} {
		if err := g.AddChannel(&core.Channel{Src: g.NodeByName(e[0]), Dst: g.NodeByName(e[1]), AccFreq: 1, Bits: 8, Tag: core.NoTag}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddProcessor(&core.Processor{Name: "p", TypeName: "t"})
	g.AddBus(&core.Bus{Name: "b", BitWidth: 8, TS: 1, TD: 1})
	deps, err := NewDeps(g)
	if err != nil {
		t.Fatalf("NewDeps on a recursive graph: %v", err)
	}
	cyclic := map[string]bool{"caller": true, "s": true, "x": true, "y": true}
	for i, n := range nodes {
		if got := deps.Cyclic(int32(i)); got != cyclic[n.Name] {
			t.Errorf("Cyclic(%s) = %v, want %v", n.Name, got, cyclic[n.Name])
		}
	}
	var order []string
	for _, i := range deps.Order() {
		order = append(order, deps.Node(i).Name)
	}
	if strings.Join(order, " ") != "v leaf" {
		t.Errorf("Order = %v, want [v leaf]", order)
	}
	in := incrFor(t, g, core.AllToProcessor(g, g.Procs[0], g.Buses[0]), Options{})
	if _, ok := in.Exectime(g.NodeByName("caller")); ok {
		t.Error("Incr reports an Exectime for a cyclic node")
	}
	if et, ok := in.Exectime(g.NodeByName("leaf")); !ok || et != 3 {
		t.Errorf("Exectime(leaf) = %v, %v; want 3 (ict 1 + transfer 1 + v 1)", et, ok)
	}
}

// incrFor builds an Incr over g bound to pt captured as an assignment
// vector — the snapshot-era binding sequence every consumer performs.
func incrFor(t *testing.T, g *core.Graph, pt *core.Partition, opt Options) *Incr {
	t.Helper()
	deps, err := NewDeps(g)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIncr(deps, opt)
	asg := core.NewAssignment(deps.Snapshot())
	if err := deps.Snapshot().Capture(pt, asg); err != nil {
		t.Fatal(err)
	}
	if err := in.Bind(asg); err != nil {
		t.Fatal(err)
	}
	return in
}

// checkIncrMatches compares every node's incremental Exectime against a
// fresh full estimator over the same partition.
func checkIncrMatches(t *testing.T, g *core.Graph, pt *core.Partition, in *Incr, opt Options) {
	t.Helper()
	est := New(g, pt, opt)
	for _, n := range g.Nodes {
		want, err := est.Exectime(n)
		if err != nil {
			t.Fatalf("oracle Exectime(%s): %v", n.Name, err)
		}
		got, ok := in.Exectime(n)
		if !ok {
			t.Fatalf("Incr has no value for %s", n.Name)
		}
		if !almost(got, want) {
			t.Errorf("Incr Exectime(%s) = %v, oracle %v", n.Name, got, want)
		}
	}
}

func TestIncrMatchesEstimator(t *testing.T) {
	g := buildGraph(t)
	for _, opt := range []Options{{}, {Mode: Min}, {Mode: Max}} {
		for _, mk := range []func(testing.TB, *core.Graph) *core.Partition{
			func(tb testing.TB, g *core.Graph) *core.Partition { return allCPU(t, g) },
			func(tb testing.TB, g *core.Graph) *core.Partition { return hwSplit(t, g) },
		} {
			pt := mk(t, g)
			checkIncrMatches(t, g, pt, incrFor(t, g, pt, opt), opt)
		}
	}
}

// TestIncrTracksMoves refreshes only the affected region after each node
// move and checks every value against a fresh estimator each time.
func TestIncrTracksMoves(t *testing.T) {
	g := buildGraph(t)
	pt := allCPU(t, g)
	opt := Options{}
	deps, err := NewDeps(g)
	if err != nil {
		t.Fatal(err)
	}
	snap := deps.Snapshot()
	in := NewIncr(deps, opt)
	asg := core.NewAssignment(snap)
	if err := snap.Capture(pt, asg); err != nil {
		t.Fatal(err)
	}
	if err := in.Bind(asg); err != nil {
		t.Fatal(err)
	}

	cpu, asic := g.ProcByName("cpu"), g.ProcByName("asic")
	moves := []struct {
		node string
		to   *core.Processor
	}{
		{"sub", asic}, {"arr", asic}, {"v", asic}, {"sub", cpu}, {"arr", cpu}, {"main", asic},
	}
	for _, m := range moves {
		n := g.NodeByName(m.node)
		if err := pt.Assign(n, m.to); err != nil {
			t.Fatal(err)
		}
		// Mirror the move into the assignment vector — one int32 store —
		// and refresh only the affected region.
		ni := snap.NodeID(m.node)
		asg.NodeComp[ni] = snap.CompID(m.to.Name)
		if err := in.RecomputeAffected(deps.Affected(ni)); err != nil {
			t.Fatal(err)
		}
		checkIncrMatches(t, g, pt, in, opt)
	}
}

// TestIncrConcurrencyTags checks the per-group max of tagged channels
// against the full estimator.
func TestIncrConcurrencyTags(t *testing.T) {
	g := core.NewGraph("tags")
	main := &core.Node{Name: "main", Kind: core.BehaviorNode, IsProcess: true}
	a := &core.Node{Name: "a", Kind: core.VariableNode, StorageBits: 8}
	b := &core.Node{Name: "b", Kind: core.VariableNode, StorageBits: 8}
	for _, n := range []*core.Node{main, a, b} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	main.SetICT("proc10", 10)
	main.SetSize("proc10", 100)
	for _, n := range []*core.Node{a, b} {
		n.SetICT("proc10", 0.2)
		n.SetSize("proc10", 1)
	}
	for _, c := range []*core.Channel{
		{Src: main, Dst: a, AccFreq: 4, Bits: 16, Tag: 7},
		{Src: main, Dst: b, AccFreq: 2, Bits: 16, Tag: 7},
	} {
		if err := g.AddChannel(c); err != nil {
			t.Fatal(err)
		}
	}
	g.AddProcessor(&core.Processor{Name: "cpu", TypeName: "proc10", SizeCon: 4096, PinCon: 40})
	g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})

	pt := core.AllToProcessor(g, g.ProcByName("cpu"), g.Buses[0])
	for _, opt := range []Options{{}, {UseTags: true}} {
		in := incrFor(t, g, pt, opt)
		checkIncrMatches(t, g, pt, in, opt)
	}
}

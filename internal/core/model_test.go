package core

import (
	"math"
	"testing"
)

// tinyGraph builds the small SLIF used across the core tests:
//
//	main (process) ── f=2,b=32 ──▶ sub ── f=10,b=15 ──▶ arr (variable)
//	main ── f=1,b=8 ──▶ v (variable)
//	main ── f=1,b=8 ──▶ out1 (port)
//
// with a cpu (proc10), an asic (asic50), a memory and one bus.
func tinyGraph(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph("tiny")
	main := &Node{Name: "main", Kind: BehaviorNode, IsProcess: true}
	sub := &Node{Name: "sub", Kind: BehaviorNode}
	v := &Node{Name: "v", Kind: VariableNode, StorageBits: 8}
	arr := &Node{Name: "arr", Kind: VariableNode, StorageBits: 1024}
	for _, n := range []*Node{main, sub, v, arr} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	out1 := &Port{Name: "out1", Dir: Out, Bits: 8}
	if err := g.AddPort(out1); err != nil {
		t.Fatal(err)
	}
	chans := []*Channel{
		{Src: main, Dst: sub, AccFreq: 2, AccMin: 0, AccMax: 2, Bits: 32, Tag: NoTag},
		{Src: sub, Dst: arr, AccFreq: 10, AccMin: 0, AccMax: 20, Bits: 15, Tag: NoTag},
		{Src: main, Dst: v, AccFreq: 1, AccMin: 1, AccMax: 1, Bits: 8, Tag: NoTag},
		{Src: main, Dst: out1, AccFreq: 1, AccMin: 1, AccMax: 1, Bits: 8, Tag: NoTag},
	}
	for _, c := range chans {
		if err := g.AddChannel(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*Node{main, sub} {
		n.SetICT("proc10", 10)
		n.SetICT("asic50", 1)
		n.SetSize("proc10", 100)
		n.SetSize("asic50", 800)
	}
	for _, n := range []*Node{v, arr} {
		n.SetICT("proc10", 0.2)
		n.SetICT("asic50", 0.02)
		n.SetICT("sram8", 0.1)
		n.SetSize("proc10", float64(n.StorageBits/8))
		n.SetSize("asic50", float64(n.StorageBits*8))
		n.SetSize("sram8", float64(n.StorageBits/8))
	}
	g.AddProcessor(&Processor{Name: "cpu", TypeName: "proc10", SizeCon: 4096, PinCon: 40})
	g.AddProcessor(&Processor{Name: "asic", TypeName: "asic50", Custom: true, SizeCon: 100000, PinCon: 64})
	g.AddMemory(&Memory{Name: "ram", TypeName: "sram8", SizeCon: 2048})
	g.AddBus(&Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphLookups(t *testing.T) {
	g := tinyGraph(t)
	if g.NodeByName("main") == nil || g.NodeByName("nothing") != nil {
		t.Error("NodeByName broken")
	}
	if g.PortByName("out1") == nil {
		t.Error("PortByName broken")
	}
	if g.FindChannel("main", "sub") == nil || g.FindChannel("sub", "main") != nil {
		t.Error("FindChannel broken")
	}
	if got := len(g.BehChans(g.NodeByName("main"))); got != 3 {
		t.Errorf("BehChans(main) = %d, want 3", got)
	}
	if got := len(g.InChans("arr")); got != 1 {
		t.Errorf("InChans(arr) = %d, want 1", got)
	}
	if g.ProcByName("cpu") == nil || g.MemByName("ram") == nil || g.BusByName("bus") == nil {
		t.Error("component lookups broken")
	}
	if len(g.Behaviors()) != 2 || len(g.Variables()) != 2 || len(g.Processes()) != 1 {
		t.Error("node classification broken")
	}
	st := g.Stats()
	if st.BV != 4 || st.IO != 1 || st.Channels != 4 {
		t.Errorf("stats: %+v", st)
	}
}

func TestAddRejectsDuplicatesAndForeign(t *testing.T) {
	g := tinyGraph(t)
	if err := g.AddNode(&Node{Name: "main"}); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := g.AddPort(&Port{Name: "main"}); err == nil {
		t.Error("port colliding with node accepted")
	}
	main := g.NodeByName("main")
	sub := g.NodeByName("sub")
	if err := g.AddChannel(&Channel{Src: main, Dst: sub}); err == nil {
		t.Error("duplicate channel accepted")
	}
	foreign := &Node{Name: "ghost", Kind: BehaviorNode}
	if err := g.AddChannel(&Channel{Src: foreign, Dst: sub}); err == nil {
		t.Error("channel with foreign source accepted")
	}
	v := g.NodeByName("v")
	if err := g.AddChannel(&Channel{Src: v, Dst: sub}); err == nil {
		t.Error("channel with variable source accepted")
	}
}

func TestValidateCatchesBadAnnotations(t *testing.T) {
	g := tinyGraph(t)
	g.FindChannel("main", "v").AccFreq = -1
	if err := g.Validate(); err == nil {
		t.Error("negative accfreq accepted")
	}
	g.FindChannel("main", "v").AccFreq = 1

	g.NodeByName("main").SetICT("proc10", -5)
	if err := g.Validate(); err == nil {
		t.Error("negative ict accepted")
	}
	g.NodeByName("main").SetICT("proc10", 10)

	// Non-finite annotations are refused; each setter restores the
	// tiny graph's value when given 0.
	c, main := g.FindChannel("main", "v"), g.NodeByName("main")
	for _, bad := range []struct {
		what string
		set  func(float64)
	}{
		{"accfreq", func(x float64) { c.AccFreq = 1 + x }},
		{"accmin", func(x float64) { c.AccMin = 1 + x }},
		{"accmax", func(x float64) { c.AccMax = 1 + x }},
		{"ict", func(x float64) { main.SetICT("proc10", 10+x) }},
		{"size", func(x float64) { main.SetSize("proc10", 100+x) }},
	} {
		for _, x := range []float64{math.NaN(), math.Inf(1)} {
			bad.set(x)
			if err := g.Validate(); err == nil {
				t.Errorf("%s %v accepted", bad.what, x)
			}
			bad.set(0)
		}
	}

	g.Buses[0].BitWidth = 0
	if err := g.Validate(); err == nil {
		t.Error("zero bus width accepted")
	}
	g.Buses[0].BitWidth = 16
	if err := g.Validate(); err != nil {
		t.Errorf("restored graph invalid: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := tinyGraph(t)
	c := g.Clone(true)
	if c.Stats() != g.Stats() {
		t.Fatalf("clone stats %+v != %+v", c.Stats(), g.Stats())
	}
	// Mutating the clone must not touch the original.
	c.NodeByName("main").SetICT("proc10", 999)
	c.FindChannel("main", "sub").AccFreq = 77
	if g.NodeByName("main").ICT["proc10"] == 999 {
		t.Error("clone shares node annotation maps")
	}
	if g.FindChannel("main", "sub").AccFreq == 77 {
		t.Error("clone shares channels")
	}
	bare := g.Clone(false)
	if len(bare.Procs)+len(bare.Mems)+len(bare.Buses) != 0 {
		t.Error("Clone(false) kept components")
	}
}

func TestRemoveNode(t *testing.T) {
	g := tinyGraph(t)
	sub := g.NodeByName("sub")
	g.RemoveNode(sub)
	if g.NodeByName("sub") != nil {
		t.Fatal("node still present")
	}
	if g.FindChannel("main", "sub") != nil || g.FindChannel("sub", "arr") != nil {
		t.Error("incident channels not removed")
	}
	if got := g.Stats(); got.BV != 3 || got.Channels != 2 {
		t.Errorf("after removal: %+v", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("graph invalid after removal: %v", err)
	}
	// Removing again is a no-op.
	g.RemoveNode(sub)
	if got := g.Stats(); got.BV != 3 {
		t.Error("double removal changed the graph")
	}
}

func TestRemoveChannel(t *testing.T) {
	g := tinyGraph(t)
	c := g.FindChannel("main", "v")
	g.RemoveChannel(c)
	if g.FindChannel("main", "v") != nil {
		t.Fatal("channel still present")
	}
	if got := len(g.BehChans(g.NodeByName("main"))); got != 2 {
		t.Errorf("outgoing index stale: %d", got)
	}
	if got := len(g.InChans("v")); got != 0 {
		t.Errorf("incoming index stale: %d", got)
	}
}

func TestComponentsOrder(t *testing.T) {
	g := tinyGraph(t)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	if comps[0].CompName() != "cpu" || comps[2].CompName() != "ram" {
		t.Errorf("order: %v, %v, %v", comps[0].CompName(), comps[1].CompName(), comps[2].CompName())
	}
	if comps[0].TypeKey() != "proc10" {
		t.Errorf("TypeKey = %q", comps[0].TypeKey())
	}
}

func TestSortedCompTypes(t *testing.T) {
	g := tinyGraph(t)
	got := g.SortedCompTypes()
	want := []string{"asic50", "proc10", "sram8"}
	if len(got) != len(want) {
		t.Fatalf("types %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("types[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

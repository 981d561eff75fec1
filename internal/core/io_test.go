package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// weirdGraph is tinyGraph plus the edge shapes a faithful round-trip must
// carry: annotation types with no allocated component, an inout port, a
// multi-bus allocation, and (from tinyGraph) a channel to a port.
func weirdGraph(t testing.TB) *Graph {
	t.Helper()
	g := tinyGraph(t)
	g.NodeByName("main").SetICT("dsp99", 3.25)
	g.NodeByName("arr").SetSize("fpga7", 12)
	if err := g.AddPort(&Port{Name: "cfg", Dir: InOut, Bits: 3}); err != nil {
		t.Fatal(err)
	}
	g.AddBus(&Bus{Name: "bus2", BitWidth: 8, TS: 0.01, TD: 0.9})
	return g
}

// TestWriteReadRoundTrip pins the text format as the graph's exact
// serialization: Read(Write(g)) equals g object for object, carries the
// partition, and compiles to g's snapshot byte for byte — including the
// port directions and the annotation types no component uses, which the
// estimators never read.
func TestWriteReadRoundTrip(t *testing.T) {
	for _, build := range []func(testing.TB) *Graph{tinyGraph, weirdGraph} {
		g := build(t)
		pt := split(t, g)

		var buf bytes.Buffer
		if err := Write(&buf, g, pt); err != nil {
			t.Fatal(err)
		}
		g2, pt2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertGraphsEqual(t, g, g2)
		want, err := mustCompile(t, g).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mustCompile(t, g2).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Compile(Read(Write(g))) is not byte-identical to Compile(g)")
		}
		if pt2 == nil {
			t.Fatal("partition lost")
		}
		for _, n := range g.Nodes {
			want := pt.BvComp(n).CompName()
			got := pt2.BvComp(g2.NodeByName(n.Name))
			if got == nil || got.CompName() != want {
				t.Errorf("node %s mapping: got %v, want %s", n.Name, got, want)
			}
		}
		for _, c := range g.Channels {
			c2 := g2.FindChannel(c.Src.Name, c.Dst.EndpointName())
			if pt2.ChanBus(c2) == nil || pt2.ChanBus(c2).Name != pt.ChanBus(c).Name {
				t.Errorf("channel %s bus mapping lost", c.Key())
			}
		}
	}
}

// TestDecompileRoundTrip pins the lift from the persisted form back to a
// Graph, which is Read over the partition-free text a checkpoint stores:
// the lifted graph validates, has no partition, equals g object for
// object, and recompiles to g's snapshot byte for byte.
func TestDecompileRoundTrip(t *testing.T) {
	for _, build := range []func(testing.TB) *Graph{tinyGraph, weirdGraph} {
		g := build(t)
		var buf bytes.Buffer
		if err := Write(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		g2, pt2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if pt2 != nil {
			t.Fatal("a partition-free text read back with a partition")
		}
		if err := g2.Validate(); err != nil {
			t.Fatalf("lifted graph invalid: %v", err)
		}
		assertGraphsEqual(t, g, g2)
		want, err := mustCompile(t, g).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := mustCompile(t, g2).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Compile(Read(Write(g, nil))) is not byte-identical to Compile(g)")
		}
	}
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Name != b.Name {
		t.Errorf("names %q vs %q", a.Name, b.Name)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v vs %+v", a.Stats(), b.Stats())
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if n.Name != m.Name || n.Kind != m.Kind || n.IsProcess != m.IsProcess || n.StorageBits != m.StorageBits {
			t.Errorf("node %d differs: %+v vs %+v", i, n, m)
		}
		if !reflect.DeepEqual(n.ICT, m.ICT) || !reflect.DeepEqual(n.Size, m.Size) {
			t.Errorf("node %s annotations differ", n.Name)
		}
	}
	for i, c := range a.Channels {
		d := b.Channels[i]
		if c.Key() != d.Key() || c.AccFreq != d.AccFreq || c.AccMin != d.AccMin ||
			c.AccMax != d.AccMax || c.Bits != d.Bits || c.Tag != d.Tag {
			t.Errorf("channel %d differs: %+v vs %+v", i, c, d)
		}
	}
	for i, p := range a.Procs {
		if *p != *b.Procs[i] {
			t.Errorf("proc %d differs", i)
		}
	}
	for i, m := range a.Mems {
		if *m != *b.Mems[i] {
			t.Errorf("mem %d differs", i)
		}
	}
	for i, bus := range a.Buses {
		if *bus != *b.Buses[i] {
			t.Errorf("bus %d differs", i)
		}
	}
	for i, p := range a.Ports {
		if *p != *b.Ports[i] {
			t.Errorf("port %d differs", i)
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	g := tinyGraph(t)
	var b1, b2 bytes.Buffer
	if err := Write(&b1, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, g, nil); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("two writes of the same graph differ")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",                        // no header
		"node x variable\n",       // record before header
		"slif g\nnode x bogus\n",  // bad node kind
		"slif g\nchan a b\n",      // malformed chan
		"slif g\nict ghost t 1\n", // unknown node
		"slif g\nwhat is this\n",  // unknown record
		"slif g\nport p sideways 8\n",
		// Parsed, but refused by Graph.Validate as a build refuses them.
		"slif g\nnode a process\nict a t NaN\n",
		"slif g\nnode a process\nnode v variable\nchan a v freq -1 min 0 max 0 bits 8 tag -1\n",
		"slif g\nnode a process\nnode v variable\nchan a v freq +Inf min 0 max 0 bits 8 tag -1\n",
	}
	for _, src := range cases {
		if _, _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

func TestReadRejectsDuplicateHeader(t *testing.T) {
	src := "slif g\nnode a process\nslif h\n"
	_, _, err := Read(strings.NewReader(src))
	if err == nil {
		t.Fatal("duplicate slif header accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name the offending line: %v", err)
	}
}

func TestReadRecordCap(t *testing.T) {
	defer func(old int) { readMaxRecords = old }(readMaxRecords)
	readMaxRecords = 4

	var src strings.Builder
	src.WriteString("slif g\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&src, "node n%d variable\n", i)
	}
	_, _, err := Read(strings.NewReader(src.String()))
	if err == nil {
		t.Fatal("over-long stream accepted")
	}
	if !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), "4 records") {
		t.Errorf("cap error missing line or limit: %v", err)
	}

	// At the cap exactly, the stream still parses.
	ok := "slif g\nnode a variable\nnode b variable\nnode c variable\n"
	if _, _, err := Read(strings.NewReader(ok)); err != nil {
		t.Errorf("stream at the cap rejected: %v", err)
	}
}

func TestReadErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		src  string
		line string
	}{
		{"slif g\nnode x bogus\n", "line 2"},
		{"slif g\nnode a process\nict ghost t 1\n", "line 3"},
		{"slif g\n\n# comment\nchan a b\n", "line 4"},
	}
	for _, c := range cases {
		_, _, err := Read(strings.NewReader(c.src))
		if err == nil {
			t.Errorf("Read(%q) succeeded, want error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.line) {
			t.Errorf("Read(%q) error %q does not mention %s", c.src, err, c.line)
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	src := "# header comment\n\nslif g\n# another\nnode a process\n"
	g, _, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeByName("a") == nil {
		t.Error("node lost")
	}
}

// randomGraph builds a structurally valid random SLIF for the round-trip
// property test.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph(fmt.Sprintf("g%d", rng.Intn(1000)))
	nBeh := 1 + rng.Intn(5)
	nVar := rng.Intn(5)
	nPort := rng.Intn(3)
	var behs []*Node
	for i := 0; i < nBeh; i++ {
		n := &Node{Name: fmt.Sprintf("b%d", i), Kind: BehaviorNode, IsProcess: rng.Intn(2) == 0}
		n.SetICT("t1", float64(rng.Intn(100)))
		n.SetSize("t1", float64(rng.Intn(1000)))
		_ = g.AddNode(n)
		behs = append(behs, n)
	}
	var ends []Endpoint
	for _, b := range behs {
		ends = append(ends, b)
	}
	for i := 0; i < nVar; i++ {
		n := &Node{Name: fmt.Sprintf("v%d", i), Kind: VariableNode, StorageBits: int64(rng.Intn(4096))}
		n.SetICT("t1", rng.Float64())
		n.SetSize("t1", float64(rng.Intn(100)))
		_ = g.AddNode(n)
		ends = append(ends, n)
	}
	for i := 0; i < nPort; i++ {
		p := &Port{Name: fmt.Sprintf("p%d", i), Dir: PortDir(rng.Intn(3)), Bits: 1 + rng.Intn(32)}
		_ = g.AddPort(p)
		ends = append(ends, p)
	}
	for tries := 0; tries < 10; tries++ {
		src := behs[rng.Intn(len(behs))]
		dst := ends[rng.Intn(len(ends))]
		mn := float64(rng.Intn(3))
		c := &Channel{
			Src: src, Dst: dst,
			AccFreq: mn + rng.Float64()*10, AccMin: mn, AccMax: mn + 100,
			Bits: rng.Intn(64), Tag: rng.Intn(4) - 1,
		}
		_ = g.AddChannel(c) // duplicates rejected, fine
	}
	g.AddProcessor(&Processor{Name: "P", TypeName: "t1", Custom: rng.Intn(2) == 0, SizeCon: float64(rng.Intn(10000)), PinCon: rng.Intn(100)})
	g.AddBus(&Bus{Name: "B", BitWidth: 1 + rng.Intn(64), TS: rng.Float64(), TD: rng.Float64() * 3})
	return g
}

// Property: Read(Write(g)) == g for arbitrary valid graphs.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		var buf bytes.Buffer
		if err := Write(&buf, g, nil); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		g2, _, err := Read(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if g.Stats() != g2.Stats() || g.Name != g2.Name {
			return false
		}
		for i, c := range g.Channels {
			d := g2.Channels[i]
			if c.Key() != d.Key() || c.AccFreq != d.AccFreq || c.Bits != d.Bits || c.Tag != d.Tag {
				return false
			}
		}
		for _, n := range g.Nodes {
			m := g2.NodeByName(n.Name)
			if m == nil || !reflect.DeepEqual(n.ICT, m.ICT) || !reflect.DeepEqual(n.Size, m.Size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"digraph", `"main"`, "style=bold", `"main" -> "sub"`, "shape=diamond"} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
}

func TestWriteDOTPartition(t *testing.T) {
	g := tinyGraph(t)
	pt := split(t, g)
	var buf bytes.Buffer
	if err := WriteDOTPartition(&buf, g, pt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"subgraph cluster_0", `label="cpu"`, `label="asic"`,
		`"main" -> "sub" [color=red]`, // crossing edge marked
		`"sub" -> "arr";`,             // internal edge unmarked
		`"out1" [shape=diamond]`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("partition DOT missing %q:\n%s", frag, out)
		}
	}
	// Partial partitions render unmapped nodes dashed.
	pt2 := NewPartition(g)
	_ = pt2.Assign(g.NodeByName("main"), g.ProcByName("cpu"))
	buf.Reset()
	if err := WriteDOTPartition(&buf, g, pt2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "style=dashed") {
		t.Error("unmapped nodes not marked")
	}
}

// TestReadRejectsNonPositiveBusWidth is the regression for the estimator
// div-by-zero: a zero or negative bus width must be rejected at parse time
// with a positioned error, never reaching the transfer-time math.
func TestReadRejectsNonPositiveBusWidth(t *testing.T) {
	for _, src := range []string{
		"slif g\nbus b width 0 ts 1 td 2\n",
		"slif g\nbus b width -3 ts 1 td 2\n",
	} {
		_, _, err := Read(strings.NewReader(src))
		if err == nil {
			t.Errorf("Read(%q) accepted a non-positive bus width", src)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "width") {
			t.Errorf("Read(%q) error %v does not name line and width", src, err)
		}
	}
}

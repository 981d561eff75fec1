package builder

import (
	"os"
	"path/filepath"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/profile"
	"specsyn/internal/sem"
	"specsyn/internal/synth"
	"specsyn/internal/vhdl"
)

// elaborate parses and elaborates an inline specification.
func elaborate(t *testing.T, src string) *sem.Design {
	t.Helper()
	df, err := vhdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sem.Elaborate(df)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runThrough runs pipeline passes up to and including the named one, then
// indexes the graph laid out so far, as the driver does after the last.
func runThrough(t *testing.T, s *state, last string) {
	t.Helper()
	for _, p := range pipeline {
		if err := p.run(s); err != nil {
			t.Fatalf("pass %s: %v", p.name, err)
		}
		if p.name == last {
			s.g.Reindex()
			return
		}
	}
	t.Fatalf("no pass named %q", last)
}

const tinySrc = `
entity TinyE is
    port ( din : in integer range 0 to 255;
           dout : out integer range 0 to 255 );
end;
architecture behav of TinyE is
    signal acc : integer range 0 to 255;
begin
    Main: process
        variable tmp : integer range 0 to 255;
        procedure Step is
        begin
            tmp := din;
            acc <= tmp + acc;
        end;
    begin
        Step;
        dout <= acc;
        wait on din;
    end process;
end;
`

// TestPassExtract checks the first pass alone: nodes in elaboration
// order with kinds, storage footprints and port widths — no channels yet.
func TestPassExtract(t *testing.T) {
	s := newBuildState(elaborate(t, tinySrc), Options{})
	runThrough(t, s, "extract")

	if got := len(s.g.Channels); got != 0 {
		t.Fatalf("extract created %d channels", got)
	}
	wantNodes := []struct {
		name    string
		process bool
		storage int64
	}{
		{"main", true, 0},
		{"step", false, 0},
		{"acc", false, 8},
		{"tmp", false, 8},
	}
	if len(s.g.Nodes) != len(wantNodes) {
		t.Fatalf("nodes = %d, want %d", len(s.g.Nodes), len(wantNodes))
	}
	for i, w := range wantNodes {
		n := s.g.Nodes[i]
		if n.Name != w.name || n.IsProcess != w.process || n.StorageBits != w.storage {
			t.Errorf("node %d = %s/process=%v/storage=%d, want %+v", i, n.Name, n.IsProcess, n.StorageBits, w)
		}
	}
	if len(s.g.Ports) != 2 || s.g.Ports[0].Name != "din" || s.g.Ports[0].Bits != 8 {
		t.Errorf("ports: %+v", s.g.Ports)
	}
	if s.g.Ports[1].Dir != core.Out {
		t.Errorf("dout direction = %v", s.g.Ports[1].Dir)
	}
}

// TestPassFrequencies checks the second pass: one channel per (src, dst)
// pair with summed expected counts, in first-access order, and no bit
// annotation yet (that belongs to the next pass).
func TestPassFrequencies(t *testing.T) {
	s := newBuildState(elaborate(t, tinySrc), Options{})
	runThrough(t, s, "frequencies")

	main := s.g.NodeByName("main")
	keys := func(cs []*core.Channel) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Dst.EndpointName())
		}
		return out
	}
	got := keys(s.g.BehChans(main))
	want := []string{"step", "dout", "acc", "din"}
	if len(got) != len(want) {
		t.Fatalf("main channels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("main channels = %v, want %v", got, want)
		}
	}
	// acc: read once in the dout assignment by main. step reads/writes it
	// separately — those accesses belong to step's own channel.
	acc := s.g.FindChannel("main", "acc")
	if acc.AccFreq != 1 || acc.AccMin != 1 || acc.AccMax != 1 {
		t.Errorf("main->acc counts = %v/%v/%v", acc.AccFreq, acc.AccMin, acc.AccMax)
	}
	stepAcc := s.g.FindChannel("step", "acc")
	if stepAcc == nil || stepAcc.AccFreq != 2 {
		t.Errorf("step->acc = %+v, want freq 2 (read + write)", stepAcc)
	}
	if acc.Bits != 0 {
		t.Errorf("frequencies pass set bits %d; that is the channelwires pass's job", acc.Bits)
	}
}

// TestPassChannelWires checks the bit-width annotation: scalars transfer
// their encoding, arrays an element plus its address, calls their
// parameter and result bits.
func TestPassChannelWires(t *testing.T) {
	src := `
entity BitsE is
    port ( din : in integer range 0 to 255 );
end;
architecture behav of BitsE is
    type buf_array is array (1 to 128) of integer range 0 to 255;
    signal buf : buf_array;
    function Pick(i : in integer) return integer is
    begin
        return buf(i);
    end;
begin
    Main: process
        variable v : integer range 0 to 7;
    begin
        v := Pick(din);
        buf(v) <= din;
        wait on din;
    end process;
end;
`
	s := newBuildState(elaborate(t, src), Options{})
	runThrough(t, s, "channelwires")

	checks := map[[2]string]int{
		{"main", "v"}:    3,       // scalar 0..7
		{"main", "buf"}:  8 + 7,   // element + address bits of a 128-entry array
		{"main", "pick"}: 32 + 32, // integer parameter + integer result
		{"main", "din"}:  8,
		{"pick", "buf"}:  8 + 7,
	}
	for key, bits := range checks {
		c := s.g.FindChannel(key[0], key[1])
		if c == nil {
			t.Fatalf("missing channel %s->%s", key[0], key[1])
		}
		if c.Bits != bits {
			t.Errorf("%s->%s bits = %d, want %d", key[0], key[1], c.Bits, bits)
		}
	}
}

// TestPassWeights checks the per-technology annotation: behaviors get
// ict/size on processors and ASICs but not memories; variables get all
// four technologies of the standard library.
func TestPassWeights(t *testing.T) {
	s := newBuildState(elaborate(t, tinySrc), Options{})
	runThrough(t, s, "weights")

	main := s.g.NodeByName("main")
	for _, tech := range []string{"proc10", "proc20", "asic50"} {
		if _, ok := main.ICT[tech]; !ok {
			t.Errorf("main has no ict on %s", tech)
		}
	}
	if _, ok := main.ICT["sram8"]; ok {
		t.Error("behavior annotated for a memory technology")
	}
	acc := s.g.NodeByName("acc")
	for _, tech := range []string{"proc10", "proc20", "asic50", "sram8"} {
		if _, ok := acc.ICT[tech]; !ok {
			t.Errorf("acc has no ict on %s", tech)
		}
	}
	// 8 stored bits: 1 byte on a processor, 8 register gates/bit on the
	// ASIC, one 8-bit word in the SRAM.
	if acc.Size["proc10"] != 1 || acc.Size["asic50"] != 64 || acc.Size["sram8"] != 1 {
		t.Errorf("acc sizes: %v", acc.Size)
	}
	// The faster processor halves the ict.
	if main.ICT["proc20"] >= main.ICT["proc10"] {
		t.Errorf("proc20 ict %v not faster than proc10 %v", main.ICT["proc20"], main.ICT["proc10"])
	}
}

// TestDefaultTechsAndProfile: empty options mean the standard technology
// set and the empty profile — the form the benchmarks build with.
func TestDefaultTechsAndProfile(t *testing.T) {
	g, err := BuildVHDL(tinySrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NodeByName("main")
	if _, ok := n.ICT["proc10"]; !ok {
		t.Error("default build missing proc10 weights")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSkipTags: the naive-baseline build form marks every channel NoTag.
func TestSkipTags(t *testing.T) {
	g, err := BuildVHDL(tinySrc, Options{SkipTags: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Channels {
		if c.Tag != core.NoTag {
			t.Errorf("channel %s tagged %d with SkipTags", c.Key(), c.Tag)
		}
	}
}

// TestTags exercises the §2.3 tag derivation on a purpose-built process:
// two independent statements share a group; a data dependence starts a
// new one; a wait is a barrier; and a tag needs at least two channels to
// survive demotion.
func TestTags(t *testing.T) {
	src := `
entity TagE is
    port ( a : in integer range 0 to 255;
           b : in integer range 0 to 255;
           go : in integer range 0 to 1;
           q : out integer range 0 to 255 );
end;
architecture behav of TagE is
begin
    Main: process
        variable x : integer range 0 to 255;
        variable y : integer range 0 to 255;
    begin
        x := a;        -- group 1
        y := b;        -- group 1: no shared objects, merges
        q <= x + y;    -- group 2: reads what group 1 wrote
        wait on go;    -- group 3: a wait is always its own group
    end process;
end;
`
	g, err := BuildVHDL(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"a":  1, // touched only by group 1, shared with b: tag kept
		"b":  1,
		"x":  -1, // written in group 1, read in group 2: spans groups
		"y":  -1,
		"q":  -1, // only channel of group 2: singleton tag demoted
		"go": -1, // only channel of group 3: singleton tag demoted
	}
	for dst, tag := range want {
		c := g.FindChannel("main", dst)
		if c == nil {
			t.Fatalf("missing channel main->%s", dst)
		}
		if c.Tag != tag {
			t.Errorf("main->%s tag = %d, want %d", dst, c.Tag, tag)
		}
	}
}

// TestBuildErrors covers the failure paths of Build/BuildVHDL.
func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("nil design accepted")
	}
	if _, err := BuildVHDL("not vhdl at all", Options{}); err == nil {
		t.Error("garbage source accepted")
	}
	if _, err := BuildVHDL("entity E is end;", Options{}); err == nil {
		t.Error("entity without architecture accepted")
	}
	bad := []*synth.Tech{{Name: "", Class: synth.StdProc}}
	if _, err := BuildVHDL(tinySrc, Options{Techs: bad}); err == nil {
		t.Error("invalid technology accepted")
	}

	// Nodes and ports share one namespace. The refusal names the second
	// declaration's line:col, and a rebuild, which falls back to a full
	// build on a changed port or object set, refuses it the same way.
	prev, err := BuildVHDL(tinySrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevFE, err := NewFrontEnd(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, src, want string }{
		{"port and signal", collideSignal, `builder: pass extract: 6:5: in declaration of x: slif: duplicate node name "x"`},
		{"port and process", collideProcess, `builder: pass extract: 8:8: in p: slif: duplicate node name "p"`},
		{"two ports", collidePorts, `builder: pass extract: slif: duplicate port name "p"`},
	} {
		if _, err := BuildVHDL(tc.src, Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: BuildVHDL error %v, want %s", tc.name, err, tc.want)
		}
		if _, _, _, err := RebuildFrom(prev, prevFE, tc.src, Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: RebuildFrom error %v, want %s", tc.name, err, tc.want)
		}
	}
}

// Name collisions the builder refuses: a port and a signal named x, a port
// and a process labelled p, two ports named p.
const (
	collideSignal = `entity E is
    port ( x : in integer range 0 to 255;
           q : out integer range 0 to 255 );
end;
architecture a of E is
    signal x : integer range 0 to 255;
begin
    Main: process
    begin
        q <= x;
        wait on x;
    end process;
end;
`
	collideProcess = `entity E is
    port ( p : in integer range 0 to 255;
           q : out integer range 0 to 255 );
end;
architecture a of E is
    signal s : integer range 0 to 255;
begin
    P: process
    begin
        q <= s;
        wait on s;
    end process;
end;
`
	collidePorts = `entity E is
    port ( p : in integer range 0 to 255;
           p : out integer range 0 to 255 );
end;
architecture a of E is
begin
    M: process
    begin
        wait;
    end process;
end;
`
)

// readTestdata loads a file from the shared testdata directory.
func readTestdata(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// buildFuzzy builds the paper's running example with its shipped profile.
func buildFuzzy(t testing.TB) *core.Graph {
	t.Helper()
	prof, err := profile.Load(filepath.Join("..", "..", "testdata", "fuzzy.prob"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildVHDL(readTestdata(t, "fuzzy.vhd"), Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenFigure4Counts pins the fuzzy example's published Figure 4
// object counts: 35 behavior+variable nodes and 56 channels must survive
// Build unchanged, so refactors of the pipeline can't silently drop nodes
// or edges.
func TestGoldenFigure4Counts(t *testing.T) {
	st := buildFuzzy(t).Stats()
	if st.BV != 35 || st.Channels != 56 {
		t.Errorf("fuzzy: BV=%d C=%d, want BV=35 C=56 (Figure 4)", st.BV, st.Channels)
	}
}

// TestFigure3Fragment asserts the annotation values of the paper's
// Figure 3 fragment, which uses 128-entry rule arrays: accessing one of
// 128 bytes costs 8 data + 7 address = 15 bits, EvaluateRule touches the
// rule store 65 times per execution and the sampled input once.
func TestFigure3Fragment(t *testing.T) {
	src := `
entity Fig3E is
    port ( in1 : in integer range 0 to 255 );
end;
architecture behav of Fig3E is
    subtype byte is integer range 0 to 255;
    type mr_array is array (1 to 128) of byte;
    signal mr1 : mr_array;
    signal in1val : byte;
    function Min(a : in integer; b : in integer) return integer is
    begin
        if a < b then
            return a;
        end if;
        return b;
    end;
begin
    Main: process
        type tmr_array is array (1 to 64) of byte;
        variable tmr1 : tmr_array;
        procedure EvaluateRule is
            variable trunc : byte;
        begin
            trunc := mr1(in1val);
            for i in 1 to 64 loop
                tmr1(i) := Min(trunc, mr1(64 + i));
            end loop;
        end;
    begin
        EvaluateRule;
        wait on in1;
    end process;
end;
`
	g, err := BuildVHDL(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mr1 := g.FindChannel("evaluaterule", "mr1")
	if mr1 == nil {
		t.Fatal("missing channel evaluaterule->mr1")
	}
	if mr1.AccFreq != 65 || mr1.Bits != 15 {
		t.Errorf("evaluaterule->mr1 = freq %v bits %d, want freq 65 bits 15 (Figure 3)", mr1.AccFreq, mr1.Bits)
	}
	in1val := g.FindChannel("evaluaterule", "in1val")
	if in1val == nil || in1val.AccFreq != 1 || in1val.Bits != 8 {
		t.Errorf("evaluaterule->in1val = %+v, want freq 1 bits 8 (Figure 3)", in1val)
	}
}

// TestFullSpecFigure3 checks the same quantities on the full fuzzy
// specification, whose rule arrays have 384 entries (9 address bits):
// the shapes scale exactly as §2.4.1 predicts.
func TestFullSpecFigure3(t *testing.T) {
	g := buildFuzzy(t)
	mr1 := g.FindChannel("evaluaterule", "mr1")
	if mr1.AccFreq != 65 || mr1.Bits != 17 {
		t.Errorf("evaluaterule->mr1 = freq %v bits %d, want freq 65 bits 17", mr1.AccFreq, mr1.Bits)
	}
}

// TestBuildDeterministic: two builds of the same design produce channel
// lists in identical order with identical annotations.
func TestBuildDeterministic(t *testing.T) {
	g1 := buildFuzzy(t)
	g2 := buildFuzzy(t)
	if len(g1.Channels) != len(g2.Channels) {
		t.Fatalf("channel counts differ: %d vs %d", len(g1.Channels), len(g2.Channels))
	}
	for i := range g1.Channels {
		a, b := g1.Channels[i], g2.Channels[i]
		if a.Key() != b.Key() || a.AccFreq != b.AccFreq || a.Bits != b.Bits || a.Tag != b.Tag {
			t.Fatalf("channel %d differs: %s vs %s", i, a.Key(), b.Key())
		}
	}
}

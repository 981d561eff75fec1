package shell

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"specsyn/internal/specsyn"
	"specsyn/internal/vhdl"
)

func session(t *testing.T) *Session {
	t.Helper()
	env := specsyn.New()
	base := filepath.Join("..", "..", "testdata")
	if err := env.LoadVHDLFile(filepath.Join(base, "fuzzy.vhd")); err != nil {
		t.Fatal(err)
	}
	if err := env.LoadProfileFile(filepath.Join(base, "fuzzy.prob")); err != nil {
		t.Fatal(err)
	}
	if err := env.Build(); err != nil {
		t.Fatal(err)
	}
	s, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run feeds a script to the shell and returns its full output.
func run(t *testing.T, s *Session, script string) string {
	t.Helper()
	var out strings.Builder
	if err := s.Run(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestShellShowAndEstimate(t *testing.T) {
	s := session(t)
	out := run(t, s, "show comps\nshow nodes\nest\nquit\n")
	for _, frag := range []string{"cpu", "asic", "ram", "proc fuzzymain", "estimated in", "bye"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestShellMapAndUndo(t *testing.T) {
	s := session(t)
	out := run(t, s, "map convolve asic\nquit\n")
	if !strings.Contains(out, "convolve → asic") {
		t.Fatalf("map failed:\n%s", out)
	}
	asic := s.Env.Graph.ProcByName("asic")
	if s.Pt.BvComp(s.Env.Graph.NodeByName("convolve")) != asic {
		t.Fatal("partition not updated")
	}
	out = run(t, s, "undo\nquit\n")
	if !strings.Contains(out, "reverted") {
		t.Fatalf("undo failed:\n%s", out)
	}
	if s.Pt.BvComp(s.Env.Graph.NodeByName("convolve")) == asic {
		t.Error("undo did not restore the mapping")
	}
}

func TestShellMapErrors(t *testing.T) {
	s := session(t)
	out := run(t, s, "map nosuch asic\nmap convolve nosuch\nmap fuzzymain ram\nundo\nquit\n")
	for _, frag := range []string{
		`unknown node "nosuch"`,
		`unknown component "nosuch"`,
		"may only map to a processor",
		// None of the failed maps may leave a snapshot, so the trailing
		// undo has nothing to revert.
		"nothing to undo",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestShellSearch(t *testing.T) {
	s := session(t)
	out := run(t, s, "search gm\nest\nquit\n")
	if !strings.Contains(out, "gm: cost") {
		t.Fatalf("search failed:\n%s", out)
	}
	if err := s.Pt.Validate(); err != nil {
		t.Errorf("searched partition invalid: %v", err)
	}
}

func TestShellSearchMulti(t *testing.T) {
	s := session(t)
	out := run(t, s, "search multi 4\nquit\n")
	if !strings.Contains(out, "multi: cost") || !strings.Contains(out, "4 legs") {
		t.Fatalf("search multi failed:\n%s", out)
	}
	if err := s.Pt.Validate(); err != nil {
		t.Errorf("searched partition invalid: %v", err)
	}
	// Bad leg counts are usage errors, and the partition stays untouched.
	out = run(t, s, "search multi zero\nquit\n")
	if !strings.Contains(out, "usage: search multi") {
		t.Fatalf("bad leg count not rejected:\n%s", out)
	}
}

func TestShellSearchPortfolio(t *testing.T) {
	s := session(t)
	out := run(t, s, "search portfolio 5\nquit\n")
	if !strings.Contains(out, "portfolio: cost") || !strings.Contains(out, "5 legs") {
		t.Fatalf("search portfolio failed:\n%s", out)
	}
	if !strings.Contains(out, "adaptive:") || !strings.Contains(out, "rounds") {
		t.Fatalf("portfolio search printed no round counters:\n%s", out)
	}
	if err := s.Pt.Validate(); err != nil {
		t.Errorf("searched partition invalid: %v", err)
	}
	out = run(t, s, "search portfolio zero\nquit\n")
	if !strings.Contains(out, "usage: search portfolio") {
		t.Fatalf("bad leg count not rejected:\n%s", out)
	}
}

func TestShellTransforms(t *testing.T) {
	s := session(t)
	// smooth was folded into the main body; recordhistory has one caller.
	out := run(t, s, "inline recordhistory\nest\nquit\n")
	if !strings.Contains(out, "inlined recordhistory") {
		t.Fatalf("inline failed:\n%s", out)
	}
	if s.Env.Graph.NodeByName("recordhistory") != nil {
		t.Error("node still present after inline")
	}
	out = run(t, s, "merge fuzzymain calmain\nest\nquit\n")
	if !strings.Contains(out, "merged into fuzzymain_calmain") {
		t.Fatalf("merge failed:\n%s", out)
	}
}

func TestShellInlineRejectsShared(t *testing.T) {
	s := session(t)
	out := run(t, s, "inline min\nquit\n")
	if !strings.Contains(out, "callers") {
		t.Errorf("shared procedure inline not rejected:\n%s", out)
	}
}

func TestShellSave(t *testing.T) {
	s := session(t)
	path := filepath.Join(t.TempDir(), "out.slif")
	out := run(t, s, "save "+path+"\nquit\n")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("save failed:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "slif fuzzycontrollere") {
		t.Errorf("saved file malformed: %q", string(data[:40]))
	}
}

func TestShellUnknownCommand(t *testing.T) {
	s := session(t)
	out := run(t, s, "frobnicate\nhelp\nquit\n")
	if !strings.Contains(out, `unknown command "frobnicate"`) {
		t.Errorf("unknown command not reported:\n%s", out)
	}
	if !strings.Contains(out, "commands:") {
		t.Errorf("help missing:\n%s", out)
	}
}

func TestShellMapAll(t *testing.T) {
	s := session(t)
	run(t, s, "search gm\nmapall cpu\nquit\n")
	cpu := s.Env.Graph.ProcByName("cpu")
	for _, n := range s.Env.Graph.Nodes {
		if s.Pt.BvComp(n) != cpu {
			t.Fatalf("node %s not on cpu after mapall", n.Name)
		}
	}
}

func TestCompNames(t *testing.T) {
	s := session(t)
	names := s.CompNames()
	want := []string{"asic", "cpu", "ram"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestShellDot(t *testing.T) {
	s := session(t)
	path := filepath.Join(t.TempDir(), "g.dot")
	out := run(t, s, "map convolve asic\ndot "+path+"\nquit\n")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("dot failed:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "subgraph cluster_") {
		t.Error("dot output not clustered")
	}
}

func TestShellExplain(t *testing.T) {
	s := session(t)
	out := run(t, s, "explain fuzzymain\nexplain nosuch\nquit\n")
	for _, frag := range []string{"contribution", "= exectime", "evaluaterule", `unknown node "nosuch"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("explain output missing %q:\n%s", frag, out)
		}
	}
}

// TestShellSearchTimeout: a trailing duration bounds the search, the
// best-so-far partition is installed, and the shell keeps running.
func TestShellSearchTimeout(t *testing.T) {
	s := session(t)
	before := s.Pt
	out := run(t, s, "search anneal 1ns\nshow part\nquit\n")
	if strings.Contains(out, "error:") {
		t.Fatalf("timed-out search errored:\n%s", out)
	}
	if !strings.Contains(out, "anneal:") {
		t.Fatalf("search produced no result line:\n%s", out)
	}
	// A 1ns budget cannot finish; the result must say so.
	if !strings.Contains(out, "(partial)") {
		t.Errorf("cut-short search not reported partial:\n%s", out)
	}
	if s.Pt == before {
		t.Error("search did not install a partition")
	}
	// The partition installed is complete despite the timeout.
	for _, n := range s.Env.Graph.Nodes {
		if s.Pt.BvComp(n) == nil {
			t.Fatalf("node %q unmapped after timed-out search", n.Name)
		}
	}
}

// TestShellSearchMultiTimeout: the timeout composes with the legs arg. A
// 1ns bound expires before any leg starts, so the engine has nothing to
// return — the shell must report that as a command error, keep the old
// partition, and keep running.
func TestShellSearchMultiTimeout(t *testing.T) {
	s := session(t)
	before := s.Pt
	out := run(t, s, "search multi 2 1ns\nshow comps\nquit\n")
	if !strings.Contains(out, "error:") {
		t.Fatalf("fully expired multi search did not report an error:\n%s", out)
	}
	if !strings.Contains(out, "bye") || !strings.Contains(out, "cpu") {
		t.Fatalf("shell did not keep running after the timeout:\n%s", out)
	}
	if s.Pt != before {
		t.Error("failed search replaced the partition")
	}
}

// TestShellSearchCtxProvider: the session-level context provider (the
// Ctrl-C seam) bounds searches even without a timeout argument.
func TestShellSearchCtxProvider(t *testing.T) {
	s := session(t)
	s.NewSearchCtx = func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // simulate an instant interrupt
		return ctx, func() { cancel() }
	}
	out := run(t, s, "search gm\nquit\n")
	if strings.Contains(out, "error:") {
		t.Fatalf("interrupted search errored:\n%s", out)
	}
	if !strings.Contains(out, "(partial)") {
		t.Errorf("interrupted search not reported partial:\n%s", out)
	}
}

func TestShellReload(t *testing.T) {
	s := session(t)
	dir := t.TempDir()

	// Comment-only edit: graph and partition survive.
	same := filepath.Join(dir, "same.vhd")
	if err := os.WriteFile(same, []byte("-- note\n"+s.Env.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	g0 := s.Env.Graph
	out := run(t, s, "reload "+same+"\nquit\n")
	if !strings.Contains(out, "no semantic change") {
		t.Fatalf("comment reload:\n%s", out)
	}
	if s.Env.Graph != g0 {
		t.Fatal("comment reload replaced the graph")
	}

	// One-behavior edit: incremental rebuild, partition reset, and the
	// session keeps working on the new graph.
	edited := filepath.Join(dir, "edited.vhd")
	df := vhdl.MustParse(s.Env.Source)
	ps := df.Architectures[0].Processes[0]
	ps.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, ps.Body...)
	if err := os.WriteFile(edited, []byte(vhdl.Format(df)), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, s, "reload "+edited+"\nest\nsearch greedy\nquit\n")
	for _, frag := range []string{"incremental rebuild in", "partition reset", "estimated in", "greedy:"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
	if s.Env.Graph == g0 {
		t.Fatal("incremental reload kept the old graph")
	}

	// Errors: usage and unreadable file leave the session intact.
	out = run(t, s, "reload\nreload "+filepath.Join(dir, "missing.vhd")+"\nquit\n")
	if !strings.Contains(out, "usage: reload") || !strings.Contains(out, "error:") {
		t.Fatalf("reload error handling:\n%s", out)
	}
}

// xySrc has processes x and y and a port named x_y, which is the name
// `merge x y` would give the merged process.
const xySrc = `
entity XYE is
    port ( din : in integer range 0 to 255;
           x_y : out integer range 0 to 255 );
end;
architecture behav of XYE is
    signal acc : integer range 0 to 255;
begin
    X: process
    begin
        acc <= din + acc;
        wait on din;
    end process;
    Y: process
    begin
        x_y <= acc;
        wait on acc;
    end process;
end;
`

// TestShellMergeNameCollision: a merge whose name a port already holds is
// refused, and the session's graph, estimate and search are as before.
func TestShellMergeNameCollision(t *testing.T) {
	env := specsyn.New()
	env.LoadVHDL(xySrc)
	if err := env.Build(); err != nil {
		t.Fatal(err)
	}
	s, err := New(env)
	if err != nil {
		t.Fatal(err)
	}
	probe := func() string {
		t.Helper()
		out := run(t, s, "show nodes\nest\nsearch greedy\nquit\n")
		return regexp.MustCompile(`estimated in \S+`).ReplaceAllString(out, "estimated in T")
	}
	before := probe()
	if out := run(t, s, "merge x y\nquit\n"); !strings.Contains(out, "error:") {
		t.Fatalf("merge onto port x_y accepted:\n%s", out)
	}
	if after := probe(); after != before {
		t.Errorf("failed merge changed the session:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

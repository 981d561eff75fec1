package specsyn

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specsyn/internal/builder"
	"specsyn/internal/core"
	"specsyn/internal/graphtest"
	"specsyn/internal/partition"
	"specsyn/internal/syngen"
	"specsyn/internal/vhdl"
	"specsyn/internal/xform"
)

// reloadBytes compiles a graph stripped of its allocation, so Reload
// results can be compared against fresh full builds.
func reloadBytes(t testing.TB, g *core.Graph) []byte {
	t.Helper()
	s, err := core.Compile(g.Clone(false))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// insertNull returns src with a null statement prepended to the body of
// its first process — the canonical one-behavior edit.
func insertNull(t testing.TB, src string) string {
	t.Helper()
	df := vhdl.MustParse(src)
	ps := df.Architectures[0].Processes[0]
	ps.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, ps.Body...)
	return vhdl.Format(df)
}

func TestEnvReloadPaths(t *testing.T) {
	env := load(t, "fuzzy")
	g0 := env.Graph

	// Comment-only edit: same graph pointer, empty delta.
	delta, err := env.Reload("-- edited\n" + env.Source)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() || env.Graph != g0 {
		t.Fatalf("comment edit: delta %+v, graph changed %v", delta, env.Graph != g0)
	}

	// One-behavior edit: incremental rebuild, byte-identical to a fresh
	// session built from the edited source, previous graph left intact.
	before := reloadBytes(t, g0)
	edited := insertNull(t, env.Source)
	delta, err = env.Reload(edited)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full || delta.Empty() {
		t.Fatalf("one-behavior edit: delta %+v", delta)
	}
	if env.Graph == g0 {
		t.Fatal("incremental reload kept the old graph pointer")
	}
	if !bytes.Equal(reloadBytes(t, g0), before) {
		t.Error("reload mutated the previous graph")
	}
	fresh := load(t, "fuzzy")
	if _, err := fresh.Reload(edited); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reloadBytes(t, env.Graph), reloadBytes(t, fresh.Graph)) {
		t.Error("incremental reload diverges from full build of edited source")
	}
	if len(env.Graph.Procs) == 0 || len(env.Graph.Buses) == 0 {
		t.Error("reload dropped the allocation")
	}

	// Structural edit (renamed entity): full fallback with a reason.
	renamed := strings.Replace(env.Source, "fuzzycontrollere", "fuzzycontrollerx", 2)
	delta, err = env.Reload(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full || delta.Reason == "" {
		t.Fatalf("entity rename: delta %+v", delta)
	}

	// Broken edit: error reported, session state untouched.
	prevSrc, prevGraph := env.Source, env.Graph
	if _, err := env.Reload("entity broken is"); err == nil {
		t.Fatal("broken source accepted")
	}
	if env.Source != prevSrc || env.Graph != prevGraph {
		t.Error("failed reload disturbed the session")
	}
}

// TestReloadNoPreviousBuildKeepsSource is the regression test for the
// no-previous-build path: a Reload whose Build fails must restore the
// source that was loaded before, not leave the session holding the broken
// text (which would make a designer's subsequent Build fail on input they
// never asked to keep, and corrupt the base of the next incremental diff).
func TestReloadNoPreviousBuildKeepsSource(t *testing.T) {
	env := New()
	if err := env.LoadVHDLFile(filepath.Join(testdata, "fuzzy.vhd")); err != nil {
		t.Fatal(err)
	}
	good := env.Source
	if _, err := env.Reload("entity broken is"); err == nil {
		t.Fatal("broken source accepted on the no-previous-build path")
	}
	if env.Source != good {
		t.Fatalf("failed reload replaced the loaded source (kept %d bytes of broken text)", len(env.Source))
	}
	if env.Graph != nil {
		t.Fatal("failed reload installed a graph")
	}
	// The session is intact: building the originally loaded source works.
	if err := env.Build(); err != nil {
		t.Fatalf("Build after failed reload: %v", err)
	}

	// Same contract for a completely fresh session (Source == "").
	empty := New()
	if _, err := empty.Reload("entity broken is"); err == nil {
		t.Fatal("broken source accepted by an empty session")
	}
	if empty.Source != "" {
		t.Error("failed reload left broken source in an empty session")
	}
}

// TestReloadEmptyDeltaKeepsDesign is the regression test for the reload
// front-end path: a semantically empty edit must not re-run the front end
// at all — the elaborated design stays pointer-identical, matching the
// untouched graph — while a real edit must advance the design along with
// the graph.
func TestReloadEmptyDeltaKeepsDesign(t *testing.T) {
	env := load(t, "fuzzy")
	d0, g0 := env.Design, env.Graph

	commented := "-- comment only\n" + env.Source
	delta, err := env.Reload(commented)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() {
		t.Fatalf("comment edit produced non-empty delta %+v", delta)
	}
	if env.Design != d0 {
		t.Error("empty-delta reload re-elaborated the design (front end ran for nothing)")
	}
	if env.Graph != g0 {
		t.Error("empty-delta reload replaced the graph")
	}
	if env.Source != commented {
		t.Error("empty-delta reload did not advance the source text")
	}

	// A real one-behavior edit must swap in the design elaborated from the
	// new source, keeping Design and Graph in step.
	edited := insertNull(t, env.Source)
	delta, err = env.Reload(edited)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Empty() || delta.Full {
		t.Fatalf("one-behavior edit: delta %+v", delta)
	}
	if env.Design == d0 {
		t.Error("incremental reload left the design stale relative to the graph")
	}
}

// TestEnvReloadSearchAfter runs a search after each reload flavor: the
// cached compiled state must never leak across graph versions.
func TestEnvReloadSearchAfter(t *testing.T) {
	env := load(t, "ans")
	search := func() float64 {
		t.Helper()
		res, err := env.PartitionSearch(context.Background(), "greedy", partition.Constraints{}, partition.DefaultWeights(), 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost
	}
	c0 := search()
	if _, err := env.Reload("-- same\n" + env.Source); err != nil {
		t.Fatal(err)
	}
	if c1 := search(); c1 != c0 {
		t.Errorf("cost changed across empty reload: %v vs %v", c1, c0)
	}
	if _, err := env.Reload(insertNull(t, env.Source)); err != nil {
		t.Fatal(err)
	}
	search() // must not panic or use stale deps

	// A fresh env over the edited source must agree with the reloaded one.
	fresh := load(t, "ans")
	if _, err := fresh.Reload(env.Source); err != nil {
		t.Fatal(err)
	}
	res1, err := env.PartitionSearch(context.Background(), "greedy", partition.Constraints{}, partition.DefaultWeights(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := fresh.PartitionSearch(context.Background(), "greedy", partition.Constraints{}, partition.DefaultWeights(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cost != res2.Cost {
		t.Errorf("search after reload diverges: %v vs %v", res1.Cost, res2.Cost)
	}
}

// TestReloadDuringParallelSearch is the reload/search race: a search
// running over a snapshot of the session must not observe a concurrent
// Reload, because reloads are copy-on-write. Run under -race this fails
// loudly on any shared-structure mutation.
func TestReloadDuringParallelSearch(t *testing.T) {
	env := load(t, "fuzzy")
	// A shallow copy pins the current graph the way an in-flight search
	// does: the original env reloads underneath it.
	searchEnv := *env

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 16)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := searchEnv.PartitionSearchParallel(context.Background(), "multi",
				partition.Constraints{}, partition.DefaultWeights(), 1, 0, 2000, partition.ParallelOptions{Legs: 4}); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		src := env.Source
		for i := 0; i < 8; i++ {
			edited := insertNull(t, src)
			if _, err := env.Reload(edited); err != nil {
				errs <- err
				return
			}
			if _, err := env.Reload(src); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReloadAfterTransform is the regression test for reloading over a
// transformed graph (the shell's inline and merge): the graph no longer
// has the layout a build gives it, so the next semantic edit must rebuild
// it from scratch rather than patch it.
func TestReloadAfterTransform(t *testing.T) {
	for _, name := range []string{"ans", "ether", "fuzzy", "vol"} {
		t.Run(name, func(t *testing.T) {
			env := load(t, name)
			g, inlined, err := xform.InlineAll(env.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if len(inlined) == 0 {
				t.Fatal("InlineAll changed nothing; the test needs a transformed graph")
			}
			env.Graph = g

			df := vhdl.MustParse(env.Source)
			procs := df.Architectures[0].Processes
			last := procs[len(procs)-1]
			last.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, last.Body...)
			edited := vhdl.Format(df)
			delta, err := env.Reload(edited)
			if err != nil {
				t.Fatal(err)
			}
			if !delta.Full {
				t.Errorf("reload over a transformed graph patched it: delta %+v", delta)
			}

			fresh := load(t, name)
			fresh.LoadVHDL(edited)
			if err := fresh.Build(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reloadBytes(t, env.Graph), reloadBytes(t, fresh.Graph)) {
				t.Errorf("reload gives %d nodes, a build of the edited source %d",
					len(env.Graph.Nodes), len(fresh.Graph.Nodes))
			}
		})
	}
}

// TestTransformDuringParallelSearch: a transform installs a new graph and
// never edits the one a running search reads. A portfolio search on a
// shallow copy of the session runs while the session inlines, merges and
// installs the results; it must match the same search on an untouched
// session bit for bit. The session's compiled state, shared with the
// copy, must then serve the transformed graph: a search on it matches a
// fresh session's search over the same transforms.
func TestTransformDuringParallelSearch(t *testing.T) {
	ctx := context.Background()
	// The bus cap keeps every cost above 0, so the costs tell searches apart.
	spec := SearchSpec{Algo: "portfolio", Seed: 1, ParallelOptions: partition.ParallelOptions{Legs: 4, Workers: 2},
		Constraints: partition.Constraints{MaxBusRate: map[string]float64{"sysbus": 100}}}
	key := func(res partition.MultiResult) string {
		return fmt.Sprintf("cost %#x evals %d", math.Float64bits(res.Cost), res.Report.Evals)
	}
	search := func(env *Env) string {
		t.Helper()
		res, err := env.Search(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return key(res)
	}
	transform := func(env *Env) {
		t.Helper()
		g, _, err := xform.InlineAll(env.Graph)
		if err != nil {
			t.Fatal(err)
		}
		env.Graph = g
		if g, _, err = xform.MergeProcesses(env.Graph, "fuzzymain", "calmain", ""); err != nil {
			t.Fatal(err)
		}
		env.Graph = g
	}

	want := search(load(t, "fuzzy"))
	env := load(t, "fuzzy")
	searchEnv := *env
	done := make(chan string)
	go func() {
		res, err := searchEnv.Search(ctx, spec)
		if err != nil {
			t.Error(err)
		}
		done <- key(res)
	}()
	transform(env)
	if got := <-done; got != want {
		t.Errorf("search during transforms: %s, untouched session: %s", got, want)
	}

	fresh := load(t, "fuzzy")
	transform(fresh)
	if got, want := search(env), search(fresh); got != want {
		t.Errorf("search after transforms: %s, fresh session: %s", got, want)
	}
}

// TestReloadAfterFailedReload: a reload that does not parse leaves the
// session's front end on its source, so the next one-behavior edit of that
// source is still a patch, byte-identical to a fresh build.
func TestReloadAfterFailedReload(t *testing.T) {
	env := load(t, "fuzzy")
	src := env.Source
	broken := strings.Replace(src, "begin", "begin $ (", 1)
	if _, err := env.Reload(broken); err == nil {
		t.Fatal("broken source accepted")
	}
	edited := insertNull(t, src)
	delta, err := env.Reload(edited)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full || delta.Empty() {
		t.Fatalf("one-behavior edit after a failed reload: delta %+v", delta)
	}
	fresh := load(t, "fuzzy")
	fresh.LoadVHDL(edited)
	if err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reloadBytes(t, env.Graph), reloadBytes(t, fresh.Graph)) {
		t.Error("patch after a failed reload diverges from a full build")
	}
}

// TestReloadAfterSourceSet: a caller that sets Source and Graph itself, as
// a checkpoint restore does, leaves the session's front end on the old
// source. Reload must diff against the source the session now holds.
func TestReloadAfterSourceSet(t *testing.T) {
	env := load(t, "fuzzy")
	src := env.Source
	other := load(t, "fuzzy")
	if _, err := other.Reload(insertNull(t, src)); err != nil {
		t.Fatal(err)
	}
	env.Source, env.Graph = other.Source, other.Graph
	delta, err := env.Reload(src)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full || delta.Empty() {
		t.Fatalf("undoing a one-behavior edit: delta %+v", delta)
	}
	fresh := load(t, "fuzzy")
	if !bytes.Equal(reloadBytes(t, env.Graph), reloadBytes(t, fresh.Graph)) {
		t.Error("reload after Source was set diverges from a full build")
	}
}

// sessionEditor makes seeded edits of one session's source, in the mix an
// editing designer makes: mostly a null statement toggled at the head of a
// random process (a patch), some comment-only edits (an empty delta) and
// some toggles of an unused architecture-level signal (a full rebuild).
type sessionEditor struct {
	df    *vhdl.DesignFile
	procs []*vhdl.ProcessStmt
	sig   *vhdl.ObjectDecl
	rng   *rand.Rand
	n     int
	text  string
}

func newSessionEditor(t testing.TB, src string, seed int64) *sessionEditor {
	df := vhdl.MustParse(src)
	e := &sessionEditor{df: df, procs: df.Architectures[0].Processes, rng: rand.New(rand.NewSource(seed)), text: src}
	if len(e.procs) == 0 {
		t.Fatal("no process to edit")
	}
	return e
}

func (e *sessionEditor) next() string {
	e.n++
	arch := e.df.Architectures[0]
	switch r := e.rng.Intn(10); {
	case r == 0:
		return fmt.Sprintf("%s-- edit %d\n", e.text, e.n)
	case r == 1 && e.sig != nil:
		for i, d := range arch.Decls {
			if d == vhdl.Decl(e.sig) {
				arch.Decls = append(arch.Decls[:i:i], arch.Decls[i+1:]...)
				break
			}
		}
		e.sig = nil
	case r == 1:
		e.sig = &vhdl.ObjectDecl{Class: vhdl.ClassSignal, Names: []string{"edit_unused"}, Type: &vhdl.TypeRef{Name: "integer"}}
		arch.Decls = append(arch.Decls[:len(arch.Decls):len(arch.Decls)], e.sig)
	default:
		p := e.procs[e.rng.Intn(len(e.procs))]
		if len(p.Body) > 0 {
			if _, ok := p.Body[0].(*vhdl.NullStmt); ok {
				p.Body = p.Body[1:]
				break
			}
		}
		p.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, p.Body...)
	}
	e.text = vhdl.Format(e.df)
	return e.text
}

// TestReloadInterleavedSessions reloads seeded edits on five sessions at
// once, one goroutine each: the paper examples and syn-p128. Each session
// keeps the front end of its own source, so every reload must give the
// graph a fresh build of its source gives, byte for byte and in every
// lookup index, and most must patch. The goroutines only reload and keep
// each graph; the test goroutine compares them afterwards.
func TestReloadInterleavedSessions(t *testing.T) {
	edits := 12
	if testing.Short() {
		edits = 4
	}
	type step struct {
		src   string
		g     *core.Graph
		delta builder.Delta
	}
	names := []string{"ans", "ether", "fuzzy", "vol", "syn-p128"}
	session := func(name, src string) *Env {
		var env *Env
		if name == "syn-p128" {
			env = New()
			if src == "" {
				src = syngen.Generate(syngen.Config{Seed: 7, Processes: 128})
			}
		} else {
			env = load(t, name)
		}
		if src != "" {
			env.LoadVHDL(src)
			if err := env.Build(); err != nil {
				t.Fatal(err)
			}
		}
		return env
	}
	steps := make([][]step, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		env := session(name, "")
		ed := newSessionEditor(t, env.Source, int64(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < edits; k++ {
				src := ed.next()
				delta, err := env.Reload(src)
				if err != nil {
					t.Errorf("%s: edit %d: %v", name, k, err)
					return
				}
				steps[i] = append(steps[i], step{src, env.Graph, delta})
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		patches := 0
		for k, st := range steps[i] {
			if !st.delta.Full && !st.delta.Empty() {
				patches++
			}
			want := session(name, st.src)
			if !bytes.Equal(reloadBytes(t, st.g), reloadBytes(t, want.Graph)) {
				t.Fatalf("%s: edit %d (delta %+v): reload diverges from a fresh build", name, k, st.delta)
			}
			graphtest.SameIndexes(t, st.g, want.Graph)
		}
		if patches == 0 {
			t.Errorf("%s: no edit of %d was a patch", name, len(steps[i]))
		}
	}
}

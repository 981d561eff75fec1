package builder

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/graphtest"
	"specsyn/internal/profile"
	"specsyn/internal/sem"
	"specsyn/internal/vhdl"
)

// The differential suite: hundreds of random single-behavior edits per
// example, each checked against the one invariant the incremental rebuild
// promises — the compiled snapshot of Rebuild's result is byte-identical to
// a from-scratch Build of the edited source — plus exactness of the
// reported Delta against an independently computed affected set.

// snapBytes is the byte-identity oracle: compiled snapshot bytes.
func snapBytes(t testing.TB, g *core.Graph) []byte {
	t.Helper()
	s, err := core.Compile(g)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// normalize round-trips a source through the printer so that subsequent
// AST-edit → Format cycles produce minimal textual diffs (and synthesized
// process labels are baked in, keeping unit identities stable as lines
// shift).
func normalize(src string) string {
	return vhdl.Format(vhdl.MustParse(src))
}

// editUnit is one editable behavior body with its fingerprint path.
type editUnit struct {
	path string
	body *[]vhdl.Stmt
}

func collectUnits(df *vhdl.DesignFile) []editUnit {
	var out []editUnit
	var subs func(decls []vhdl.Decl, prefix string)
	subs = func(decls []vhdl.Decl, prefix string) {
		for _, d := range decls {
			if sp, ok := d.(*vhdl.SubprogramDecl); ok {
				out = append(out, editUnit{path: prefix + sp.Name, body: &sp.Body})
				subs(sp.Decls, prefix+sp.Name+"/")
			}
		}
	}
	for _, a := range df.Architectures {
		subs(a.Decls, "")
		for _, ps := range a.Processes {
			out = append(out, editUnit{path: ps.Label, body: &ps.Body})
			subs(ps.Decls, ps.Label+"/")
		}
	}
	return out
}

// Edit kinds. Only stmtDelete can change the elaborated symbol sequence
// (dropping the last reference to an implicit symbol), so only it may
// legitimately fall back to a full rebuild.
const (
	editInsertNull = iota
	editDelete
	editDuplicate
	editLoopBound
	numEditKinds
)

// applyRandomEdit mutates one random behavior body of df in place and
// returns the edited unit's path and the edit kind; ok is false when the
// drawn edit is not applicable (empty body, no literal loop bound).
func applyRandomEdit(rng *rand.Rand, df *vhdl.DesignFile) (path string, kind int, ok bool) {
	units := collectUnits(df)
	u := units[rng.Intn(len(units))]
	kind = rng.Intn(numEditKinds)
	switch kind {
	case editInsertNull:
		i := rng.Intn(len(*u.body) + 1)
		*u.body = append((*u.body)[:i:i], append([]vhdl.Stmt{&vhdl.NullStmt{}}, (*u.body)[i:]...)...)
	case editDelete:
		if len(*u.body) < 2 {
			return "", kind, false
		}
		i := rng.Intn(len(*u.body))
		*u.body = append((*u.body)[:i:i], (*u.body)[i+1:]...)
	case editDuplicate:
		if len(*u.body) == 0 {
			return "", kind, false
		}
		i := rng.Intn(len(*u.body))
		*u.body = append((*u.body)[:i:i], append([]vhdl.Stmt{(*u.body)[i]}, (*u.body)[i:]...)...)
	case editLoopBound:
		var loops []*vhdl.ForStmt
		vhdl.WalkStmts(*u.body, func(st vhdl.Stmt) {
			if fs, isFor := st.(*vhdl.ForStmt); isFor {
				if _, lit := fs.High.(*vhdl.IntExpr); lit {
					loops = append(loops, fs)
				}
			}
		})
		if len(loops) == 0 {
			return "", kind, false
		}
		fs := loops[rng.Intn(len(loops))]
		fs.High = &vhdl.IntExpr{Val: fs.High.(*vhdl.IntExpr).Val + 1}
	}
	return u.path, kind, true
}

// expectedAffected computes, independently of Rebuild's implementation, the
// set of behaviors a body edit at editedPath must touch: the unit itself,
// its lexical descendants, and the closure of callers over the previous
// graph's access relation.
func expectedAffected(d *sem.Design, prev *core.Graph, editedPath string) map[string]bool {
	exp := make(map[string]bool)
	var queue []string
	for _, b := range d.Behaviors {
		if b.Implicit {
			continue
		}
		p := behaviorPath(b)
		if p == editedPath || strings.HasPrefix(p, editedPath+"/") {
			exp[b.UniqueID] = true
			queue = append(queue, b.UniqueID)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range prev.InChans(id) {
			if !exp[c.Src.Name] {
				exp[c.Src.Name] = true
				queue = append(queue, c.Src.Name)
			}
		}
	}
	return exp
}

func exampleOptions(t testing.TB, name string) Options {
	t.Helper()
	prof, err := profile.Load(filepath.Join("..", "..", "testdata", name+".prob"))
	if err != nil {
		t.Fatal(err)
	}
	return Options{Profile: prof}
}

func testRebuildDifferential(t *testing.T, name string, edits int) {
	opts := exampleOptions(t, name)
	src := normalize(readTestdata(t, name+".vhd"))
	prev, err := BuildVHDL(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260808))
	applied := 0
	for i := 0; i < edits; i++ {
		df := vhdl.MustParse(src)
		path, kind, ok := applyRandomEdit(rng, df)
		if !ok {
			continue
		}
		newSrc := vhdl.Format(df)
		want, err := BuildVHDL(newSrc, opts)
		if err != nil {
			// The edit broke the design (a delete can orphan a name); the
			// rebuild must refuse it the same way.
			if _, _, rerr := Rebuild(prev, src, newSrc, opts); rerr == nil {
				t.Fatalf("edit %d (%s): full build fails (%v) but Rebuild succeeds", i, path, err)
			}
			continue
		}
		got, delta, err := Rebuild(prev, src, newSrc, opts)
		if err != nil {
			t.Fatalf("edit %d (%s): rebuild: %v", i, path, err)
		}
		if !bytes.Equal(snapBytes(t, got), snapBytes(t, want)) {
			t.Fatalf("edit %d (%s, kind %d): rebuild diverges from full build (delta %+v)", i, path, kind, delta)
		}
		graphtest.SameIndexes(t, got, want)
		if delta.Full {
			if kind != editDelete {
				t.Fatalf("edit %d (%s, kind %d): unexpected full fallback: %s", i, path, kind, delta.Reason)
			}
		} else {
			_, d, err := Frontend(newSrc)
			if err != nil {
				t.Fatal(err)
			}
			exp := expectedAffected(d, prev, path)
			gotSet := make(map[string]bool)
			for _, id := range delta.Changed {
				gotSet[id] = true
			}
			for _, id := range delta.Dependents {
				gotSet[id] = true
			}
			if len(gotSet) != len(exp) {
				t.Fatalf("edit %d (%s): delta names %d behaviors, want %d (%+v vs %v)", i, path, len(gotSet), len(exp), delta, exp)
			}
			for id := range exp {
				if !gotSet[id] {
					t.Fatalf("edit %d (%s): delta misses affected behavior %s", i, path, id)
				}
			}
		}
		applied++
		// Half the time, accept the edit: later iterations then rebuild on
		// top of an already-rebuilt graph, exercising chained reloads.
		if rng.Intn(2) == 0 {
			src, prev = newSrc, got
		}
	}
	if applied < edits/2 {
		t.Fatalf("only %d/%d edits applicable; generator broken", applied, edits)
	}
}

func TestRebuildDifferential(t *testing.T) {
	edits := 200
	if testing.Short() {
		edits = 30
	}
	for _, name := range []string{"ans", "ether", "fuzzy", "vol"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			testRebuildDifferential(t, name, edits)
		})
	}
}

// TestRebuildNoSemanticChange pins the cheapest path: a comment or
// formatting edit returns the previous graph itself, untouched.
func TestRebuildNoSemanticChange(t *testing.T) {
	opts := exampleOptions(t, "fuzzy")
	src := normalize(readTestdata(t, "fuzzy.vhd"))
	prev, err := BuildVHDL(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	newSrc := "-- edited only in comments\n" + src + "\n-- trailing note\n"
	got, delta, err := Rebuild(prev, src, newSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != prev {
		t.Error("comment-only edit must return the previous graph pointer")
	}
	if !delta.Empty() {
		t.Errorf("comment-only edit reported a delta: %+v", delta)
	}
}

// TestRebuildRenameFallsBack: renaming a unit defeats path matching; the
// rebuild must detect it, fall back to a full build, and say so.
func TestRebuildRenameFallsBack(t *testing.T) {
	opts := exampleOptions(t, "fuzzy")
	src := normalize(readTestdata(t, "fuzzy.vhd"))
	prev, err := BuildVHDL(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	df := vhdl.MustParse(src)
	var renamed bool
	for _, a := range df.Architectures {
		for _, d := range a.Decls {
			if sp, ok := d.(*vhdl.SubprogramDecl); ok {
				sp.Name += "_rn"
				renamed = true
				break
			}
		}
		if renamed {
			break
		}
	}
	if !renamed {
		t.Skip("fuzzy has no architecture-level subprogram to rename")
	}
	newSrc := vhdl.Format(df)
	want, err := BuildVHDL(newSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, delta, err := Rebuild(prev, src, newSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full {
		t.Errorf("rename did not force a full rebuild: %+v", delta)
	}
	if !bytes.Equal(snapBytes(t, got), snapBytes(t, want)) {
		t.Error("full-fallback rebuild diverges from full build")
	}
}

// TestRebuildPrevUntouched: the fast path is copy-on-write; a concurrent
// reader of the previous graph must observe it bit-for-bit unchanged, in
// its slices and in every lookup index.
func TestRebuildPrevUntouched(t *testing.T) {
	opts := exampleOptions(t, "fuzzy")
	src := normalize(readTestdata(t, "fuzzy.vhd"))
	prev, err := BuildVHDL(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, clone := snapBytes(t, prev), prev.Clone(true)
	df := vhdl.MustParse(src)
	units := collectUnits(df)
	*units[0].body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, *units[0].body...)
	got, delta, err := Rebuild(prev, src, vhdl.Format(df), opts)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full || delta.Empty() {
		t.Fatalf("expected a fast-path rebuild, got %+v", delta)
	}
	if got == prev {
		t.Fatal("fast path returned the previous graph for a semantic edit")
	}
	if !bytes.Equal(snapBytes(t, prev), before) {
		t.Error("rebuild mutated the previous graph")
	}
	graphtest.SameIndexes(t, prev, clone)
}

// TestRebuildWithOverrides: designer weight overrides must be re-pinned on
// re-extracted nodes, keeping byte-identity with a full overridden build.
func TestRebuildWithOverrides(t *testing.T) {
	ov, err := LoadOverrides(filepath.Join("..", "..", "testdata", "fuzzy.ov"))
	if err != nil {
		t.Fatal(err)
	}
	opts := exampleOptions(t, "fuzzy")
	opts.Overrides = ov
	src := normalize(readTestdata(t, "fuzzy.vhd"))
	prev, err := BuildVHDL(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		df := vhdl.MustParse(src)
		path, _, ok := applyRandomEdit(rng, df)
		if !ok {
			continue
		}
		newSrc := vhdl.Format(df)
		want, err := BuildVHDL(newSrc, opts)
		if err != nil {
			continue
		}
		got, _, err := Rebuild(prev, src, newSrc, opts)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, path, err)
		}
		if !bytes.Equal(snapBytes(t, got), snapBytes(t, want)) {
			t.Fatalf("edit %d (%s): overridden rebuild diverges from full build", i, path)
		}
		graphtest.SameIndexes(t, got, want)
	}
}

// FuzzRebuild feeds arbitrary edited sources through Rebuild against a
// fixed baseline: whenever the edited source builds from scratch, the
// incremental result must be byte-identical; whenever it does not, Rebuild
// must fail too.
func FuzzRebuild(f *testing.F) {
	base := normalize(readTestdata(f, "fuzzy.vhd"))
	f.Add(base)
	f.Add(strings.Replace(base, "null;", "", 1))
	f.Add(strings.Replace(base, ";", ";\nnull;", 1))
	f.Add("entity e is end; architecture a of e is begin process begin wait; end process; end;")
	prev, err := BuildVHDL(base, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, newSrc string) {
		want, werr := BuildVHDL(newSrc, Options{})
		got, _, gerr := Rebuild(prev, base, newSrc, Options{})
		if werr != nil {
			if gerr == nil {
				t.Fatalf("full build fails (%v) but Rebuild succeeds", werr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("full build succeeds but Rebuild fails: %v", gerr)
		}
		if !bytes.Equal(snapBytes(t, got), snapBytes(t, want)) {
			t.Fatal("rebuild diverges from full build")
		}
	})
}

// TestRebuildPortsNotInBuilderForm: the localized path takes prev's ports
// by position, so a prev whose ports are not the design's falls back to a
// full build instead of indexing past them.
func TestRebuildPortsNotInBuilderForm(t *testing.T) {
	src := normalize(tinySrc)
	prev, err := BuildVHDL(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev = prev.Clone(false)
	prev.Ports = prev.Ports[:1]
	prev.Reindex()
	df := vhdl.MustParse(src)
	units := collectUnits(df)
	*units[0].body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, *units[0].body...)
	edited := vhdl.Format(df)
	got, delta, err := Rebuild(prev, src, edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Full || delta.Reason != "previous graph not in builder form" {
		t.Fatalf("delta %+v, want a full rebuild: previous graph not in builder form", delta)
	}
	want, err := BuildVHDL(edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, got), snapBytes(t, want)) {
		t.Error("full-fallback rebuild diverges from full build")
	}
}

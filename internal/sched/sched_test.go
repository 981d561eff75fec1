package sched

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"specsyn/internal/sem"
	"specsyn/internal/syngen"
	"specsyn/internal/vhdl"
)

// runSteps runs a Scheduler on b and returns its statement steps.
func runSteps(d *sem.Design, b *sem.Behavior) []int {
	var s Scheduler
	s.Run(d, b)
	return s.Steps()
}

// runTags runs a Scheduler on b and returns its tags by target ID.
func runTags(d *sem.Design, b *sem.Behavior) map[string]int {
	var s Scheduler
	s.Run(d, b)
	return tagMap(&s)
}

// tagMap returns the tags of the behavior s last ran by target ID.
func tagMap(s *Scheduler) map[string]int {
	m := make(map[string]int, len(s.ids))
	for key, id := range s.ids {
		m[key] = s.tags[id]
	}
	return m
}

func process(t *testing.T, src string) (*sem.Design, *sem.Behavior) {
	t.Helper()
	df, err := vhdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sem.Elaborate(df)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range d.Behaviors {
		if b.IsProcess {
			return d, b
		}
	}
	t.Fatal("no process")
	return nil, nil
}

func TestScheduleIndependentStatementsShareStep(t *testing.T) {
	d, b := process(t, `
entity E is port (a, bb : in integer); end;
architecture x of E is begin
P: process
    variable v, w : integer;
begin
    v := a;
    w := bb;
end process; end;`)
	steps := runSteps(d, b)
	if len(steps) != 2 {
		t.Fatalf("steps = %v", steps)
	}
	if steps[0] != 1 || steps[1] != 1 {
		t.Errorf("independent statements scheduled %v, want both in step 1", steps)
	}
}

func TestScheduleDataDependencySerializes(t *testing.T) {
	d, b := process(t, `
entity E is port (a : in integer); end;
architecture x of E is begin
P: process
    variable v, w : integer;
begin
    v := a;
    w := v;
end process; end;`)
	steps := runSteps(d, b)
	if steps[0] != 1 || steps[1] != 2 {
		t.Errorf("RAW dependency ignored: %v", steps)
	}
}

func TestScheduleWARAndWAW(t *testing.T) {
	d, b := process(t, `
entity E is port (a : in integer); end;
architecture x of E is begin
P: process
    variable v, w : integer;
begin
    w := v;
    v := a;
    v := a + 1;
end process; end;`)
	steps := runSteps(d, b)
	if !(steps[0] < steps[1] && steps[1] < steps[2]) {
		t.Errorf("WAR/WAW ordering violated: %v", steps)
	}
}

func TestCallsSerialize(t *testing.T) {
	d, b := process(t, `
entity E is end;
architecture x of E is
    procedure Q is begin null; end;
begin
P: process
    variable v, w : integer;
begin
    v := 1;
    Q;
    w := 2;
end process; end;`)
	steps := runSteps(d, b)
	if !(steps[0] < steps[1] && steps[1] < steps[2]) {
		t.Errorf("call did not serialize: %v", steps)
	}
}

func TestTagsConcurrentGroup(t *testing.T) {
	d, b := process(t, `
entity E is port (a, bb : in integer); end;
architecture x of E is begin
P: process
    variable v, w : integer;
begin
    v := a;
    w := bb;
end process; end;`)
	tags := runTags(d, b)
	// v, w, a, bb all touched only in step 1 → one shared tag.
	if tags["v"] == NoTag || tags["v"] != tags["w"] {
		t.Errorf("concurrent writes not tagged together: %v", tags)
	}
	if tags["a"] != tags["v"] {
		t.Errorf("port reads not in the group: %v", tags)
	}
}

func TestTagsSequentialGetsNoTag(t *testing.T) {
	d, b := process(t, `
entity E is port (a : in integer); end;
architecture x of E is begin
P: process
    variable v, w : integer;
begin
    v := a;
    w := v;
end process; end;`)
	tags := runTags(d, b)
	// v is touched in steps 1 and 2 → strictly sequential.
	if tags["v"] != NoTag {
		t.Errorf("multi-step target tagged: %v", tags)
	}
}

func TestTagsSingletonGroupDropped(t *testing.T) {
	d, b := process(t, `
entity E is port (a : in integer); end;
architecture x of E is begin
P: process
    variable v : integer;
begin
    v := 1;
end process; end;`)
	tags := runTags(d, b)
	if tags["v"] != NoTag {
		t.Errorf("a group of one is not concurrency: %v", tags)
	}
}

func TestCompoundStatementFootprint(t *testing.T) {
	// The write inside the if body must conflict with the later read.
	d, b := process(t, `
entity E is port (a : in integer); end;
architecture x of E is begin
P: process
    variable v, w : integer;
begin
    if a = 1 then
        v := 1;
    end if;
    w := v;
end process; end;`)
	steps := runSteps(d, b)
	if !(steps[0] < steps[1]) {
		t.Errorf("nested write not in footprint: %v", steps)
	}
}

func TestTagsOnTestdataFuzzy(t *testing.T) {
	// Smoke: tags derive for every behavior of the real example without
	// panic, and every tagged target shares its tag with at least one
	// other target of the same behavior.
	src := readTestdata(t, "fuzzy.vhd")
	df, err := vhdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sem.Elaborate(df)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range d.Behaviors {
		tags := runTags(d, b)
		count := map[int]int{}
		for _, tag := range tags {
			if tag != NoTag {
				count[tag]++
			}
		}
		for tag, n := range count {
			if n < 2 {
				t.Errorf("%s: tag %d has a single member", b.Name, tag)
			}
		}
	}
}

// TestWideBehaviorMemory: scheduling a behavior costs memory in
// proportion to its accesses, not to statements × targets. The process has
// n independent assignments to n variables, so all of them land in step 1
// and share tag 1.
func TestWideBehaviorMemory(t *testing.T) {
	const n = 4096
	var sb strings.Builder
	sb.WriteString("entity E is end;\narchitecture x of E is begin\nP: process\n")
	for i := range n {
		fmt.Fprintf(&sb, "variable v%d : integer;\n", i)
	}
	sb.WriteString("begin\n")
	for i := range n {
		fmt.Fprintf(&sb, "v%d := 1;\n", i)
	}
	sb.WriteString("end process;\nend;\n")
	d, b := process(t, sb.String())

	var s Scheduler
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run(d, b)
	runtime.ReadMemStats(&after)

	for i, step := range s.Steps() {
		if step != 1 {
			t.Fatalf("statement %d: step %d, want 1", i, step)
		}
	}
	if tags := tagMap(&s); len(tags) != n {
		t.Fatalf("%d targets tagged, want %d", len(tags), n)
	} else {
		for id, tag := range tags {
			if tag != 1 {
				t.Fatalf("%s: tag %d, want 1", id, tag)
			}
		}
	}
	// A bitset per statement over all targets would take 2·n·n/64 words,
	// 4 MiB here; a pass over the accesses needs a few hundred bytes each.
	const limit = 512 * n
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("Run allocated %d bytes for %d accesses, limit %d", got, n, limit)
	} else {
		t.Logf("Run allocated %d bytes for %d accesses", got, n)
	}
}

// FuzzTags checks Scheduler against the oracle on every behavior of a
// design: the same step for every statement and the same tag for every
// target. The design is src when it is not empty, else the syngen subject
// the other arguments configure. One Scheduler serves all behaviors, so
// state left over from one behavior would show in the next.
func FuzzTags(f *testing.F) {
	for _, name := range []string{"ans.vhd", "ether.vhd", "fuzzy.vhd", "vol.vhd"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), int64(0), 0, 0, 0, 0, 0, 0)
	}
	for _, procs := range []int{8, 32, 128} {
		f.Add("", int64(7), procs, 0, 0, 0, 0, 0)
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, procs, procsPer, varsPer, arraysPer, stmtsPer, sharedSigs int) {
		if src == "" {
			// Bound the subject's size; negative counts mean none.
			bound := func(n, hi int) int { return n % (hi + 1) }
			src = syngen.Generate(syngen.Config{
				Seed: seed, Processes: bound(procs, 128), ProcsPer: bound(procsPer, 6),
				VarsPer: bound(varsPer, 8), ArraysPer: bound(arraysPer, 3),
				StmtsPer: bound(stmtsPer, 12), SharedSigs: bound(sharedSigs, 6),
			})
		}
		df, err := vhdl.Parse(src)
		if err != nil {
			return
		}
		d, err := sem.Elaborate(df)
		if err != nil {
			return
		}
		var s Scheduler
		for _, b := range d.Behaviors {
			s.Run(d, b)
			if want := oracleSchedule(d, b); !slices.Equal(s.Steps(), want) {
				t.Fatalf("%s: steps %v, oracle %v", b.UniqueID, s.Steps(), want)
			}
			if got, want := tagMap(&s), oracleTags(d, b); !maps.Equal(got, want) {
				t.Fatalf("%s: tags %v, oracle %v", b.UniqueID, got, want)
			}
		}
	})
}

// The oracle below is the scheduler as it was written first: two
// string-keyed maps per statement and an analysis per query. Scheduler
// must give the same steps and tags on every behavior.

// oracleInfo is the read/write footprint of one top-level statement.
type oracleInfo struct {
	reads    map[string]bool // target unique IDs
	writes   map[string]bool
	serial   bool // transfers control: orders against everything
	accessed []string
}

// oracleSchedule assigns an ASAP control step (1-based) to each top-level
// statement of behavior b.
func oracleSchedule(d *sem.Design, b *sem.Behavior) []int {
	infos := oracleAnalyze(d, b)
	steps := make([]int, len(infos))
	for i := range infos {
		step := 1
		for j := 0; j < i; j++ {
			if oracleConflicts(infos[j], infos[i]) && steps[j]+1 > step {
				step = steps[j] + 1
			}
		}
		steps[i] = step
	}
	return steps
}

// oracleTags returns the concurrency tag for each accessed target (by unique ID)
// of behavior b: targets only touched within one control step share that
// step's number as their tag; targets touched in several steps, and
// singleton groups, get NoTag.
func oracleTags(d *sem.Design, b *sem.Behavior) map[string]int {
	infos := oracleAnalyze(d, b)
	steps := oracleSchedule(d, b)

	// Which steps touch each target?
	targetSteps := map[string]map[int]bool{}
	for i, info := range infos {
		for _, t := range info.accessed {
			if targetSteps[t] == nil {
				targetSteps[t] = map[int]bool{}
			}
			targetSteps[t][steps[i]] = true
		}
	}

	// Candidate tag = the single step of a single-step target.
	tags := map[string]int{}
	perStep := map[int]int{} // step → number of single-step targets in it
	for t, ss := range targetSteps {
		if len(ss) == 1 {
			for s := range ss {
				tags[t] = s
				perStep[s]++
			}
		} else {
			tags[t] = NoTag
		}
	}
	// A "group" of one is not concurrency.
	for t, tag := range tags {
		if tag != NoTag && perStep[tag] < 2 {
			tags[t] = NoTag
		}
	}
	return tags
}

// oracleAnalyze computes read/write footprints of b's top-level statements.
func oracleAnalyze(d *sem.Design, b *sem.Behavior) []oracleInfo {
	infos := make([]oracleInfo, 0, len(b.Body))
	for _, s := range b.Body {
		info := oracleInfo{reads: map[string]bool{}, writes: map[string]bool{}}
		oracleCollect(d, b, s, &info)
		infos = append(infos, info)
	}
	return infos
}

func oracleConflicts(a, bb oracleInfo) bool {
	if a.serial || bb.serial {
		return true
	}
	for w := range a.writes {
		if bb.reads[w] || bb.writes[w] {
			return true
		}
	}
	for w := range bb.writes {
		if a.reads[w] {
			return true
		}
	}
	return false
}

// oracleNote records an access to a resolved name in the footprint.
func oracleNote(d *sem.Design, b *sem.Behavior, name string, write bool, info *oracleInfo) {
	sym := d.Lookup(b, name)
	if sym == nil {
		return
	}
	var id string
	switch sym.Kind {
	case sem.SymObject:
		if sym.Object.IsParam {
			return
		}
		id = sym.Object.UniqueID
	case sem.SymPort:
		id = sym.Port.Name
	case sem.SymBehavior:
		id = sym.Behavior.UniqueID
		info.serial = true // calls serialize in the baseline schedule
		info.reads[id] = true
		info.accessed = append(info.accessed, id)
		return
	default:
		return
	}
	if write {
		info.writes[id] = true
	} else {
		info.reads[id] = true
	}
	info.accessed = append(info.accessed, id)
}

func oracleCollectExpr(d *sem.Design, b *sem.Behavior, e vhdl.Expr, info *oracleInfo) {
	vhdl.WalkExpr(e, func(x vhdl.Expr) {
		switch n := x.(type) {
		case *vhdl.NameExpr:
			oracleNote(d, b, n.Name, false, info)
		case *vhdl.CallExpr:
			oracleNote(d, b, n.Name, false, info)
		case *vhdl.AttrExpr:
			oracleNote(d, b, n.Prefix, false, info)
		}
	})
}

// oracleCollect accumulates the footprint of a statement subtree into info.
func oracleCollect(d *sem.Design, b *sem.Behavior, s vhdl.Stmt, info *oracleInfo) {
	switch st := s.(type) {
	case *vhdl.AssignStmt:
		oracleCollectExpr(d, b, st.Value, info)
		switch t := st.Target.(type) {
		case *vhdl.NameExpr:
			oracleNote(d, b, t.Name, true, info)
		case *vhdl.CallExpr:
			oracleNote(d, b, t.Name, true, info)
			for _, a := range t.Args {
				oracleCollectExpr(d, b, a, info)
			}
		}
	case *vhdl.IfStmt:
		oracleCollectExpr(d, b, st.Cond, info)
		for _, sub := range st.Then {
			oracleCollect(d, b, sub, info)
		}
		for _, el := range st.Elifs {
			oracleCollectExpr(d, b, el.Cond, info)
			for _, sub := range el.Body {
				oracleCollect(d, b, sub, info)
			}
		}
		for _, sub := range st.Else {
			oracleCollect(d, b, sub, info)
		}
	case *vhdl.CaseStmt:
		oracleCollectExpr(d, b, st.Expr, info)
		for _, w := range st.Whens {
			for _, sub := range w.Body {
				oracleCollect(d, b, sub, info)
			}
		}
	case *vhdl.ForStmt:
		for _, sub := range st.Body {
			oracleCollect(d, b, sub, info)
		}
	case *vhdl.WhileStmt:
		oracleCollectExpr(d, b, st.Cond, info)
		for _, sub := range st.Body {
			oracleCollect(d, b, sub, info)
		}
	case *vhdl.LoopStmt:
		for _, sub := range st.Body {
			oracleCollect(d, b, sub, info)
		}
	case *vhdl.ExitStmt:
		oracleCollectExpr(d, b, st.Cond, info)
	case *vhdl.CallStmt:
		oracleNote(d, b, st.Name, false, info)
		info.serial = true
		for _, a := range st.Args {
			oracleCollectExpr(d, b, a, info)
		}
	case *vhdl.WaitStmt:
		info.serial = true
		for _, sig := range st.OnSignals {
			oracleNote(d, b, sig, false, info)
		}
		oracleCollectExpr(d, b, st.Until, info)
	case *vhdl.ReturnStmt:
		info.serial = true
		oracleCollectExpr(d, b, st.Value, info)
	}
}

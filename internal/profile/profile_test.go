package profile

import (
	"math"
	"strings"
	"testing"
)

func TestParseRecords(t *testing.T) {
	src := `
# comment line
defaultloop 2
beh.br1 0.5 0.5    # inline comment
beh.loop1 100 200
other.br2 0.25
`
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.DefaultLoop != 2 {
		t.Errorf("defaultloop = %v", p.DefaultLoop)
	}
	if got := p.Branch("beh", 1, 0, 2); got != 0.5 {
		t.Errorf("branch arm 0 = %v", got)
	}
	avg, max := p.Loop("beh", 1)
	if avg != 100 || max != 200 {
		t.Errorf("loop = %v,%v", avg, max)
	}
	// Unrecorded loop falls back to the default.
	avg, max = p.Loop("beh", 9)
	if avg != 2 || max != 2 {
		t.Errorf("default loop = %v,%v", avg, max)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"beh.br1 1.5",     // probability out of range
		"beh.br1",         // no values
		"beh.loop1",       // no count
		"beh.loop1 1 2 3", // too many
		"garbage 1",       // unknown record
		"defaultloop",     // malformed
		"beh.br1 x",       // not a number
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestBranchDefaults(t *testing.T) {
	p := Empty()
	// Unrecorded: uniform across arms.
	if got := p.Branch("b", 1, 0, 4); got != 0.25 {
		t.Errorf("uniform = %v", got)
	}
	// Recorded for fewer arms than asked: remainder spread.
	p.SetBranch("b", 1, 0.5)
	if got := p.Branch("b", 1, 0, 2); got != 0.5 {
		t.Errorf("recorded arm = %v", got)
	}
	if got := p.Branch("b", 1, 1, 2); got != 0.5 {
		t.Errorf("remainder arm = %v", got)
	}
	p.SetBranch("b", 2, 0.5, 0.3)
	if got := p.Branch("b", 2, 2, 4); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("split remainder = %v", got)
	}
}

func TestBranchCaseInsensitive(t *testing.T) {
	p := Empty()
	p.SetBranch("EvaluateRule", 1, 0.7)
	if got := p.Branch("evaluaterule", 1, 0, 2); got != 0.7 {
		t.Errorf("case-insensitive lookup = %v", got)
	}
}

func TestSetLoopMax(t *testing.T) {
	p := Empty()
	p.SetLoop("b", 1, 10, 50)
	avg, max := p.Loop("b", 1)
	if avg != 10 || max != 50 {
		t.Errorf("loop = %v,%v", avg, max)
	}
	p.SetLoop("b", 2, 7)
	avg, max = p.Loop("b", 2)
	if avg != 7 || max != 7 {
		t.Errorf("loop without max = %v,%v", avg, max)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	p := Empty()
	p.DefaultLoop = 3
	p.SetBranch("beh", 1, 0.25, 0.75)
	p.SetBranch("other", 2, 0.1, 0.2, 0.7)
	p.SetLoop("beh", 1, 12, 48)
	p.SetLoop("beh", 2, 7)

	var sb strings.Builder
	if err := p.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if q.DefaultLoop != 3 {
		t.Errorf("defaultloop lost: %v", q.DefaultLoop)
	}
	if got := q.Branch("beh", 1, 1, 2); got != 0.75 {
		t.Errorf("branch lost: %v", got)
	}
	avg, max := q.Loop("beh", 1)
	if avg != 12 || max != 48 {
		t.Errorf("loop lost: %v/%v", avg, max)
	}
	avg, max = q.Loop("beh", 2)
	if avg != 7 || max != 7 {
		t.Errorf("loop without max lost: %v/%v", avg, max)
	}
	// Deterministic output.
	var sb2 strings.Builder
	_ = p.Dump(&sb2)
	if sb.String() != sb2.String() {
		t.Error("Dump not deterministic")
	}
}

// TestRecordKeys: a record is found exactly when its key is the behavior's
// lower-cased name, the kind and the site number in decimal, and a record
// no lookup can reach still survives Dump.
func TestRecordKeys(t *testing.T) {
	src := "Beh.br2 0.25 0.75\nbeh.br03 1\nx.brick.loop1 0.5\na.loop1.br2 0.1 0.9\nbeh.loop-1 3\nbeh.loop+2 4\n"
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		beh     string
		n       int
		want    float64
		comment string
	}{
		{"BEH", 2, 0.75, "case-insensitive behavior"},
		{"beh", 3, 0.5, "03 is not site 3"},
		{"a.loop1", 2, 0.9, "the last .br splits the key"},
	} {
		if got := p.Branch(c.beh, c.n, 1, 2); got != c.want {
			t.Errorf("%s: Branch(%q, %d) = %v, want %v", c.comment, c.beh, c.n, got, c.want)
		}
	}
	if avg, _ := p.Loop("beh", -1); avg != 3 {
		t.Errorf("Loop(beh, -1) = %v, want 3", avg)
	}
	if avg, _ := p.Loop("beh", 2); avg != 1 {
		t.Errorf("+2 is not site 2: Loop(beh, 2) = %v, want the default 1", avg)
	}
	if avg, _ := p.Loop("x.brick", 1); avg != 1 {
		t.Errorf("a key holding .br is a branch record: Loop(x.brick, 1) = %v, want the default 1", avg)
	}
	var sb strings.Builder
	if err := p.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a.loop1.br2 0.1 0.9\nbeh.br03 1\nbeh.br2 0.25 0.75\nbeh.loop+2 4\nbeh.loop-1 3\nx.brick.loop1 0.5\n"
	if sb.String() != want {
		t.Errorf("Dump:\n%s\nwant\n%s", sb.String(), want)
	}
}

// TestLookupsDoNotAllocate: Branch and Loop build their keys on the stack,
// also for behavior names with upper-case letters.
func TestLookupsDoNotAllocate(t *testing.T) {
	p := Empty()
	p.SetBranch("Convolve", 3, 0.25, 0.75)
	p.SetLoop("Convolve", 1, 8, 16)
	if got := p.Branch("CONVOLVE", 3, 1, 2); got != 0.75 {
		t.Fatalf("Branch(CONVOLVE, 3) = %v, want 0.75", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.Branch("Convolve", 3, 1, 2)
		p.Branch("Convolve", 4, 0, 2)
		p.Loop("Convolve", 1)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per lookup round, want 0", allocs)
	}
}

package vhdl

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"specsyn/internal/syngen"
)

const nestingHead = "entity E is end; architecture x of E is begin P: process variable v : integer; begin "

// deepSources are inputs nested far past maxNesting: 1 MB of open
// parentheses in an expression, and 10k nested if statements.
func deepSources() map[string]string {
	return map[string]string{
		"parens": nestingHead + "v := " + strings.Repeat("(", 1<<20) + "1;",
		"ifs": nestingHead + strings.Repeat("if v = 1 then ", 10000) + "null;" +
			strings.Repeat(" end if;", 10000) + " end process; end;",
	}
}

// TestParseNestingLimit: nesting past the limit yields exactly one
// positioned diagnostic in bounded time instead of exhausting the stack.
func TestParseNestingLimit(t *testing.T) {
	diag := regexp.MustCompile(fmt.Sprintf(`^\d+:\d+: nesting deeper than %d levels$`, maxNesting))
	for name, src := range deepSources() {
		start := time.Now()
		_, err := Parse(src)
		if err == nil || !diag.MatchString(err.Error()) {
			t.Errorf("%s: err = %.200v, want one positioned nesting diagnostic", name, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: parse took %v", name, d)
		}
	}
	// Just inside the limit still parses.
	ok := nestingHead + "v := " + strings.Repeat("(", maxNesting/2) + "1" + strings.Repeat(")", maxNesting/2) + "; wait; end process; end;"
	if _, err := Parse(ok); err != nil {
		t.Errorf("nesting below the limit: %v", err)
	}
}

// TestParseAllTestdataAndSyngenSubjects: the nesting limit rejects no real
// input — every testdata specification and every generated benchmark
// subject parses cleanly.
func TestParseAllTestdataAndSyngenSubjects(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.vhd"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	for _, f := range files {
		if _, err := Parse(readTestdata(t, filepath.Base(f))); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	for _, cfg := range []syngen.Config{
		{Seed: 7, Processes: 8},
		{Seed: 7, Processes: 32},
		{Seed: 7, Processes: 128},
		{Seed: 7, Processes: 1024, ProcsPer: -1, VarsPer: 1, ArraysPer: -1, StmtsPer: 2, SharedSigs: 1},
	} {
		if _, err := Parse(syngen.Generate(cfg)); err != nil {
			t.Errorf("syngen %+v: %v", cfg, err)
		}
	}
}

package vhdl

import (
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// TestParseDiagnosticsPinned pins the full diagnostic text of two inputs,
// as the parser gave it when it still lexed the whole file into a token
// buffer before parsing: the streaming parser must report the same errors
// in the same order. The first input puts lexical errors after a nesting
// halt, which the parser reports by lexing the rest of the file; the
// second interleaves lexical and syntax errors.
func TestParseDiagnosticsPinned(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{
			name: "after halt",
			src: nestingHead + "v := 1 $ 2; v := " + strings.Repeat("(", maxNesting+1) +
				" $ 1; w := 'x' ; \"open\n end process; end; @",
			want: "1:93: invalid character \"$\"\n1:1105: invalid character \"$\"\n1:1121: unterminated string literal\n" +
				"2:20: invalid character \"@\"\n1:95: expected ;, found integer 2\n1:95: expected statement, found integer 2\n" +
				"1:1102: nesting deeper than 1000 levels",
		},
		{
			name: "interleaved",
			src: "entity E is port (a : in integer; b ; c : out integer); end;\n" +
				"architecture x of E is\n  signal s : integer ? ;\nbegin\n P: process\n  variable v : integer;\n begin\n" +
				"  v := a + ;\n  v := 3 ! 4;\n  if v = then null; end if;\n  v := 16#1G#;\n" +
				"  case v is when 1 => null; when others => v := ^ 2; end case;\n" +
				"  v := 99999999999999999999;\n  wait for 10 ns ~ ;\n end process;\nend;\nfoo bar;\n",
			want: "3:22: invalid character \"?\"\n9:10: invalid character \"!\"\n" +
				"11:8: invalid integer literal \"16#1G#\": strconv.ParseInt: parsing \"1g\": invalid syntax\n" +
				"12:49: invalid character \"^\"\n" +
				"13:8: invalid integer literal \"99999999999999999999\": strconv.ParseInt: parsing \"99999999999999999999\": value out of range\n" +
				"14:18: invalid character \"~\"\n1:37: expected :, found ;\n1:37: expected identifier, found ;\n" +
				"8:12: expected expression, found ;\n9:3: expected ;, found identifier \"v\"\n9:12: expected ;, found integer 4\n" +
				"9:12: expected statement, found integer 4\n10:10: expected expression, found 'then'\n" +
				"10:15: expected 'then', found 'null'\n17:1: expected design unit, found identifier \"foo\"",
		},
	} {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: diagnostics\n%v\nwant\n%s", c.name, err, c.want)
		}
	}
}

// TestLexInvalidRunFlatStack: a long run of invalid bytes lexes in a loop,
// not a call per byte, and is one diagnostic. Under an 8 MB stack limit,
// 8 MB of '$' used to overflow the stack, which no recover catches.
func TestLexInvalidRunFlatStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))
	_, err := Parse(strings.Repeat("$", 8<<20))
	if err == nil || !regexp.MustCompile(`^1:1: \d+ invalid characters starting with "\$"$`).MatchString(err.Error()) {
		t.Errorf("err = %.200v, want one positioned diagnostic", err)
	}
	toks, errs := LexAll("a $$# b $ c")
	if len(toks) != 4 || len(errs) != 2 {
		t.Fatalf("tokens %v, errors %v; want a, b, c, EOF and one error per run", toks, errs)
	}
	if got := errs[0].Error(); got != `1:3: 3 invalid characters starting with "$"` {
		t.Errorf("run diagnostic %q", got)
	}
}

// TestParseDiagnosticsCapped: input made of nothing but errors stops after
// maxDiagnostics of them, whether they are syntax errors (one per ';') or
// lexical ones (one per "$"), so 16 MB of it costs what its first hundred
// errors cost, and the error says the list was cut.
func TestParseDiagnosticsCapped(t *testing.T) {
	for _, unit := range []string{";", "$ "} {
		src := strings.Repeat(unit, (16<<20)/len(unit))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%q: no error", unit)
		}
		lines := strings.Split(err.Error(), "\n")
		if len(lines) > maxDiagnostics+1 || lines[len(lines)-1] != "too many errors" {
			t.Errorf("%q: %d lines ending %q; want at most %d ending \"too many errors\"",
				unit, len(lines), lines[len(lines)-1], maxDiagnostics+1)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Errorf("%q: Parse allocated %d MB, want under 64", unit, alloc>>20)
		}
	}
	// Below the cap nothing is cut.
	_, err := Parse(strings.Repeat(";", maxDiagnostics-1))
	if n := strings.Count(err.Error(), "\n") + 1; n != maxDiagnostics-1 || strings.Contains(err.Error(), "too many") {
		t.Errorf("%d errors under the cap: got %d lines (%.80q...)", maxDiagnostics-1, n, err)
	}
}

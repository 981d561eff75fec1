package vhdl

import (
	"strings"
	"testing"
)

// FuzzParse drives the lexer+parser with arbitrary input. Invariants: no
// panic, and when parsing succeeds the printed form must reparse cleanly
// (print/parse closure). Run long with:
//
//	go test -fuzz=FuzzParse ./internal/vhdl
//
// In normal test runs only the seed corpus executes.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"entity E is end;",
		"entity E is port (a : in integer); end; architecture x of E is begin end;",
		tinyEntity,
		"entity E is port ( : in ); end;",
		"architecture x of Nothing is begin end;",
		"P: process begin wait; end process;",
		"entity E is end; architecture x of E is begin P: process begin a(1)(2) := 3; end process; end;",
		"-- comment only\n",
		"entity \x00 is end;",
		"entity E is end; architecture x of E is signal s : integer range 5 downto 1; begin end;",
		nestingHead + "v := " + strings.Repeat("(", 2*maxNesting) + "1;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		df, err := Parse(src)
		if err != nil || df == nil {
			return
		}
		printed := Format(df)
		if _, err := Parse(printed); err != nil {
			t.Fatalf("printed form of valid parse does not reparse: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
	})
}

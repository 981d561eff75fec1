package vhdl

import (
	"fmt"
	"strconv"
	"strings"
)

// A LexError describes a lexical error with its position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer converts VHDL source text into a token stream. It is resilient:
// on an invalid byte it records an error, skips the byte, and continues, so
// a single bad character does not abort parsing of the rest of the file.
type Lexer struct {
	src    string
	off    int // byte offset of the next unread byte
	line   int
	col    int
	Errors []*LexError
	room   int // diagnostics still allowed; see maxDiagnostics
}

// maxDiagnostics bounds the diagnostics a lexer and the parser over it
// record together. The one that reaches it stops the lexer, as if the
// input ended there, so hostile input costs time and memory in proportion
// to the bound, not to its length.
const maxDiagnostics = 100

// NewLexer returns a lexer over src. File is consumed as raw bytes; VHDL
// source in the subset is ASCII.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, room: maxDiagnostics}
}

// stopped reports whether the lexer reached maxDiagnostics.
func (l *Lexer) stopped() bool { return l.room == 0 }

// spend counts one diagnostic against maxDiagnostics; the last one allowed
// stops the lexer.
func (l *Lexer) spend() {
	if l.room--; l.room == 0 {
		l.off = len(l.src)
	}
}

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	l.Errors = append(l.Errors, &LexError{Pos: p, Msg: fmt.Sprintf(format, args...)})
	l.spend()
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) || c == '_' }

// skipBlank consumes whitespace and "--" comments. It scans with a local
// offset and batches the line/col bookkeeping: this loop visits most bytes
// of the file, and a method call per byte dominates lexing time.
func (l *Lexer) skipBlank() {
	src, i := l.src, l.off
	line, col := l.line, l.col
	for i < len(src) {
		c := src[i]
		if c == '\n' {
			line++
			col = 1
			i++
		} else if c == ' ' || c == '\t' || c == '\r' {
			col++
			i++
		} else if c == '-' && i+1 < len(src) && src[i+1] == '-' {
			for i < len(src) && src[i] != '\n' {
				i++
				col++
			}
		} else {
			break
		}
	}
	l.line, l.col, l.off = line, col, i
}

// pos returns the position of the next unread byte.
func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

// Next returns the next token. At end of input it returns an EOF token
// (repeatedly, if called again).
func (l *Lexer) Next() Token {
	for {
		l.skipBlank()
		p := l.pos()
		if l.off >= len(l.src) {
			return Token{Kind: EOF, Pos: p}
		}
		c := l.peek()
		switch {
		case isLetter(c):
			return l.ident(p)
		case isDigit(c):
			return l.number(p)
		}
		l.advance()
		switch c {
		case '(':
			return Token{Kind: LPAREN, Pos: p}
		case ')':
			return Token{Kind: RPAREN, Pos: p}
		case ';':
			return Token{Kind: SEMI, Pos: p}
		case ',':
			return Token{Kind: COMMA, Pos: p}
		case '.':
			return Token{Kind: DOT, Pos: p}
		case '+':
			return Token{Kind: PLUS, Pos: p}
		case '-':
			return Token{Kind: MINUS, Pos: p}
		case '*':
			return Token{Kind: STAR, Pos: p}
		case '&':
			return Token{Kind: AMP, Pos: p}
		case '|':
			return Token{Kind: BAR, Pos: p}
		case ':':
			if l.peek() == '=' {
				l.advance()
				return Token{Kind: ASSIGN, Pos: p}
			}
			return Token{Kind: COLON, Pos: p}
		case '=':
			if l.peek() == '>' {
				l.advance()
				return Token{Kind: ARROW, Pos: p}
			}
			return Token{Kind: EQ, Pos: p}
		case '/':
			if l.peek() == '=' {
				l.advance()
				return Token{Kind: NEQ, Pos: p}
			}
			return Token{Kind: SLASH, Pos: p}
		case '<':
			if l.peek() == '=' {
				l.advance()
				return Token{Kind: SIGASSIGN, Pos: p}
			}
			return Token{Kind: LT, Pos: p}
		case '>':
			if l.peek() == '=' {
				l.advance()
				return Token{Kind: GE, Pos: p}
			}
			return Token{Kind: GT, Pos: p}
		case '\'':
			return l.charlit(p)
		case '"':
			return l.strlit(p)
		}
		// c begins no token. A run of such bytes is one diagnostic, and the
		// loop, rather than a call per byte, keeps the stack flat on any
		// input.
		n := 1
		for l.off < len(l.src) && !startsToken(l.peek()) {
			l.advance()
			n++
		}
		if n == 1 {
			l.errorf(p, "invalid character %q", string(rune(c)))
		} else {
			l.errorf(p, "%d invalid characters starting with %q", n, string(rune(c)))
		}
	}
}

// startsToken reports whether c can begin a token or a blank.
func startsToken(c byte) bool { return tokenStart[c] }

var tokenStart = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		t[c] = isLetter(b) || isDigit(b) || isSpace(b) || strings.IndexByte("();,.+-*&|:=/<>'\"", b) >= 0
	}
	return t
}()

func (l *Lexer) ident(p Pos) Token {
	src, i := l.src, l.off
	start := i
	hasUpper := false
	// Identifiers never contain newlines, so the column advances by the
	// token length and the scan stays in this tight loop.
	for i < len(src) && isIdent(src[i]) {
		if c := src[i]; c >= 'A' && c <= 'Z' {
			hasUpper = true
		}
		i++
	}
	l.col += i - l.off
	l.off = i
	orig := l.src[start:l.off]
	// VHDL identifiers are case-insensitive; most source is already
	// lower-case, so only allocate a lowered copy when needed.
	lower := orig
	if hasUpper {
		lower = strings.ToLower(orig)
	}
	return Token{Kind: Lookup(lower), Text: lower, Orig: orig, Pos: p}
}

func (l *Lexer) number(p Pos) Token {
	src, i := l.src, l.off
	start := i
	for i < len(src) && (isDigit(src[i]) || src[i] == '_') {
		i++
	}
	l.col += i - l.off
	l.off = i
	// Based literals like 16#FF# are accepted for completeness.
	if l.peek() == '#' {
		l.advance()
		for l.off < len(l.src) && l.peek() != '#' && !isSpace(l.peek()) {
			l.advance()
		}
		if l.peek() == '#' {
			l.advance()
		}
	}
	text := l.src[start:l.off]
	val, err := parseIntLiteral(text)
	if err != nil {
		l.errorf(p, "invalid integer literal %q: %v", text, err)
	}
	return Token{Kind: INTLIT, Text: text, Orig: text, Val: val, Pos: p}
}

// parseIntLiteral handles plain decimal with optional underscores and VHDL
// based literals of the form base#digits#.
func parseIntLiteral(text string) (int64, error) {
	clean := strings.ReplaceAll(text, "_", "")
	if i := strings.IndexByte(clean, '#'); i >= 0 {
		base, err := strconv.ParseInt(clean[:i], 10, 64)
		if err != nil || base < 2 || base > 16 {
			return 0, fmt.Errorf("bad base in %q", text)
		}
		body := strings.TrimSuffix(clean[i+1:], "#")
		return strconv.ParseInt(strings.ToLower(body), int(base), 64)
	}
	return strconv.ParseInt(clean, 10, 64)
}

func (l *Lexer) charlit(p Pos) Token {
	// The tick may be a character literal '0' or an attribute tick (x'range).
	// A char literal is exactly '<c>'. Otherwise emit TICK.
	if l.off+1 < len(l.src) && l.src[l.off+1] == '\'' {
		c := l.advance()
		l.advance() // closing quote
		text := string(rune(c))
		return Token{Kind: CHARLIT, Text: text, Orig: "'" + text + "'", Val: int64(c), Pos: p}
	}
	return Token{Kind: TICK, Pos: p}
}

func (l *Lexer) strlit(p Pos) Token {
	start := l.off
	for l.off < len(l.src) && l.peek() != '"' && l.peek() != '\n' {
		l.advance()
	}
	text := l.src[start:l.off]
	if l.peek() == '"' {
		l.advance()
	} else {
		l.errorf(p, "unterminated string literal")
	}
	return Token{Kind: STRLIT, Text: text, Orig: `"` + text + `"`, Pos: p}
}

// LexAll tokenizes the whole input, returning the tokens (terminated by a
// single EOF token) and any lexical errors, up to maxDiagnostics of them.
// The parser does not use it: it pulls tokens from a Lexer one at a time.
func LexAll(src string) ([]Token, []*LexError) {
	l := NewLexer(src)
	// Pre-size for the observed token density of the subset (one token per
	// ~5 bytes of formatted source) to avoid repeated growth copies.
	toks := make([]Token, 0, len(src)/5+16)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, l.Errors
		}
	}
}

package vhdl

import (
	"errors"
	"fmt"
	"strings"
)

// A ParseError describes a syntax error with its position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser is a recursive-descent parser for the VHDL subset. It records the
// errors it encounters, up to maxDiagnostics, and synchronizes on
// semicolons, so one syntax error does not hide later ones.
//
// Tokens stream in from a Lexer: the parser never holds more than the
// current token and the two after it, its deepest lookahead (a label, its
// colon, and the loop keyword that follows).
type Parser struct {
	lex    *Lexer
	ring   [4]Token // tokens n, n+1 and n+2 sit at ring[n&3], ...
	n      int      // tokens consumed so far
	depth  int      // current statement/expression/declaration nesting
	halted bool     // nesting limit hit: the rest of the input is skipped
	Errors []*ParseError

	a     arena
	stmts stack[Stmt]
	exprs stack[Expr]
	decls stack[Decl]
	ids   stack[string]
}

// newParser returns a parser at the first token of src.
func newParser(src string) *Parser {
	p := &Parser{lex: NewLexer(src)}
	for i := 0; i < 3; i++ {
		p.ring[i] = p.lex.Next()
	}
	return p
}

// maxNesting bounds statement, expression and declaration nesting. Real
// specifications stay far below it; hostile input that nests deeper gets a
// positioned diagnostic instead of overflowing the goroutine stack.
const maxNesting = 1000

// enter opens one nesting level. Past maxNesting it records the error and
// skips to EOF, so every open construct unwinds at once without further
// diagnostics; the caller then returns without calling leave.
func (p *Parser) enter() bool {
	if p.depth == maxNesting {
		p.errorf(p.cur().Pos, "nesting deeper than %d levels", maxNesting)
		p.halted = true
		p.skipToEOF()
		return false
	}
	p.depth++
	return true
}

func (p *Parser) leave() { p.depth-- }

// skipToEOF lexes the rest of the input, so its lexical errors are still
// reported, and leaves the parser at EOF.
func (p *Parser) skipToEOF() {
	t := p.peek2()
	for t.Kind != EOF {
		t = p.lex.Next()
	}
	p.ring = [4]Token{t, t, t, t}
}

// Parse parses a complete design file. It returns the (possibly partial)
// tree and an error summarizing all lexical and syntax diagnostics, or nil
// if the file is clean. After maxDiagnostics of them it stops reading the
// input, and the error ends with a "too many errors" line.
func Parse(src string) (*DesignFile, error) {
	p := newParser(src)
	df := p.parseDesignFile()
	var msgs []string
	for _, e := range p.lex.Errors {
		msgs = append(msgs, e.Error())
	}
	for _, e := range p.Errors {
		msgs = append(msgs, e.Error())
	}
	if p.lex.stopped() {
		msgs = append(msgs, "too many errors")
	}
	if len(msgs) > 0 {
		return df, errors.New(strings.Join(msgs, "\n"))
	}
	return df, nil
}

// MustParse is Parse that panics on error; for tests and examples with
// known-good sources.
func MustParse(src string) *DesignFile {
	df, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return df
}

func (p *Parser) cur() Token   { return p.ring[p.n&3] }
func (p *Parser) peek() Token  { return p.ring[(p.n+1)&3] } // token after cur
func (p *Parser) peek2() Token { return p.ring[(p.n+2)&3] } // token after peek

// next consumes the current token and lexes the one that enters the
// window. At EOF it stays put.
func (p *Parser) next() Token {
	t := p.ring[p.n&3]
	if t.Kind != EOF {
		p.ring[(p.n+3)&3] = p.lex.Next()
		p.n++
	}
	return t
}

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

// accept consumes the current token if it has kind k.
func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	if p.halted || p.lex.stopped() {
		return
	}
	p.Errors = append(p.Errors, &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	p.lex.spend()
}

// expect consumes a token of kind k or records an error. It returns the
// consumed (or current, on failure) token.
func (p *Parser) expect(k Kind) Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return p.cur()
}

// expectIdent consumes an identifier and returns its normalized text.
func (p *Parser) expectIdent() string {
	if p.at(IDENT) {
		return p.next().Text
	}
	p.errorf(p.cur().Pos, "expected identifier, found %s", p.cur())
	return ""
}

// sync skips tokens up to and including the next semicolon (or to EOF),
// used for error recovery.
func (p *Parser) sync() {
	for !p.at(EOF) {
		if p.next().Kind == SEMI {
			return
		}
	}
}

func (p *Parser) parseDesignFile() *DesignFile {
	df := &DesignFile{}
	for !p.at(EOF) {
		switch p.cur().Kind {
		case KwENTITY:
			if e := p.parseEntity(); e != nil {
				df.Entities = append(df.Entities, e)
			}
		case KwARCHITECTURE:
			if a := p.parseArchitecture(); a != nil {
				df.Architectures = append(df.Architectures, a)
			}
		case KwUSE, KwPACKAGE:
			// Library context clauses are accepted and ignored.
			p.sync()
		default:
			p.errorf(p.cur().Pos, "expected design unit, found %s", p.cur())
			p.sync()
		}
	}
	return df
}

func (p *Parser) parseEntity() *Entity {
	pos := p.expect(KwENTITY).Pos
	e := &Entity{Name: p.expectIdent(), Pos: pos}
	p.expect(KwIS)
	if p.accept(KwPORT) {
		p.expect(LPAREN)
		for {
			if pd := p.parsePortDecl(); pd != nil {
				e.Ports = append(e.Ports, pd)
			}
			if !p.accept(SEMI) {
				break
			}
		}
		p.expect(RPAREN)
		p.expect(SEMI)
	}
	p.expect(KwEND)
	p.accept(KwENTITY)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return e
}

func (p *Parser) parsePortDecl() *PortDecl {
	pos := p.cur().Pos
	pd := &PortDecl{Pos: pos}
	pd.Names = p.parseIdentList()
	p.expect(COLON)
	pd.Dir = p.parseDir()
	pd.Type = p.parseTypeRef()
	return pd
}

func (p *Parser) parseIdentList() []string {
	m := p.ids.mark()
	p.ids.push(p.expectIdent())
	for p.accept(COMMA) {
		p.ids.push(p.expectIdent())
	}
	return p.ids.pop(m, &p.a.identList)
}

func (p *Parser) parseDir() PortDir {
	switch {
	case p.accept(KwIN):
		return DirIn
	case p.accept(KwOUT):
		return DirOut
	case p.accept(KwINOUT):
		return DirInOut
	}
	return DirIn // default mode per LRM
}

// parseTypeRef parses a type mark with an optional range or index constraint.
func (p *Parser) parseTypeRef() *TypeRef {
	pos := p.cur().Pos
	tr := node(&p.a.typeRef, TypeRef{Name: p.expectIdent(), Pos: pos})
	switch {
	case p.accept(KwRANGE):
		tr.Range = p.parseRangeDef()
	case p.at(LPAREN):
		p.next()
		tr.Index = p.parseRangeDef()
		p.expect(RPAREN)
	}
	return tr
}

func (p *Parser) parseRangeDef() *RangeDef {
	r := node(&p.a.ranges, RangeDef{})
	r.Low = p.parseSimpleExpr()
	switch {
	case p.accept(KwTO):
	case p.accept(KwDOWNTO):
		r.Downto = true
	default:
		p.errorf(p.cur().Pos, "expected 'to' or 'downto', found %s", p.cur())
	}
	r.High = p.parseSimpleExpr()
	if r.Downto {
		r.Low, r.High = r.High, r.Low
	}
	return r
}

func (p *Parser) parseArchitecture() *Architecture {
	pos := p.expect(KwARCHITECTURE).Pos
	a := &Architecture{Name: p.expectIdent(), Pos: pos}
	p.expect(KwOF)
	a.EntityName = p.expectIdent()
	p.expect(KwIS)
	a.Decls = p.parseDecls()
	p.expect(KwBEGIN)
	for !p.at(KwEND) && !p.at(EOF) {
		if ps := p.parseConcurrentStmt(); ps != nil {
			a.Processes = append(a.Processes, ps)
		}
	}
	p.expect(KwEND)
	p.accept(KwARCHITECTURE)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return a
}

// parseDecls parses a declarative part, stopping before 'begin' / 'end'.
func (p *Parser) parseDecls() []Decl {
	if !p.enter() {
		return nil
	}
	m := p.decls.mark()
	for {
		switch p.cur().Kind {
		case KwTYPE:
			if d := p.parseTypeDecl(); d != nil {
				p.decls.push(d)
			}
		case KwSUBTYPE:
			if d := p.parseSubtypeDecl(); d != nil {
				p.decls.push(d)
			}
		case KwVARIABLE, KwSIGNAL, KwCONSTANT:
			if d := p.parseObjectDecl(); d != nil {
				p.decls.push(d)
			}
		case KwPROCEDURE, KwFUNCTION:
			if d := p.parseSubprogram(); d != nil {
				p.decls.push(d)
			}
		default:
			p.leave()
			return p.decls.pop(m, &p.a.declList)
		}
	}
}

func (p *Parser) parseTypeDecl() *TypeDecl {
	pos := p.expect(KwTYPE).Pos
	td := &TypeDecl{Name: p.expectIdent(), Pos: pos}
	p.expect(KwIS)
	td.Def = &TypeDef{}
	switch {
	case p.accept(KwARRAY):
		p.expect(LPAREN)
		ad := &ArrayDef{}
		ad.Low = p.parseSimpleExpr()
		switch {
		case p.accept(KwTO):
		case p.accept(KwDOWNTO):
			ad.Downto = true
		default:
			p.errorf(p.cur().Pos, "expected 'to' or 'downto' in array bounds")
		}
		ad.High = p.parseSimpleExpr()
		if ad.Downto {
			ad.Low, ad.High = ad.High, ad.Low
		}
		p.expect(RPAREN)
		p.expect(KwOF)
		ad.Element = p.parseTypeRef()
		td.Def.Array = ad
	case p.accept(KwRANGE):
		td.Def.Range = p.parseRangeDef()
	case p.at(LPAREN):
		// Enumeration type: type state is (idle, run, stop);
		p.next()
		for {
			td.Def.EnumLits = append(td.Def.EnumLits, p.expectIdent())
			if !p.accept(COMMA) {
				break
			}
		}
		p.expect(RPAREN)
	default:
		p.errorf(p.cur().Pos, "unsupported type definition at %s", p.cur())
		p.sync()
		return td
	}
	p.expect(SEMI)
	return td
}

func (p *Parser) parseSubtypeDecl() *SubtypeDecl {
	pos := p.expect(KwSUBTYPE).Pos
	sd := &SubtypeDecl{Name: p.expectIdent(), Pos: pos}
	p.expect(KwIS)
	sd.Base = p.parseTypeRef()
	p.expect(SEMI)
	return sd
}

func (p *Parser) parseObjectDecl() *ObjectDecl {
	od := node(&p.a.objects, ObjectDecl{Pos: p.cur().Pos})
	switch p.next().Kind {
	case KwVARIABLE:
		od.Class = ClassVariable
	case KwSIGNAL:
		od.Class = ClassSignal
	case KwCONSTANT:
		od.Class = ClassConstant
	}
	od.Names = p.parseIdentList()
	p.expect(COLON)
	od.Type = p.parseTypeRef()
	if p.accept(ASSIGN) {
		od.Init = p.parseExpr()
	}
	p.expect(SEMI)
	return od
}

func (p *Parser) parseSubprogram() *SubprogramDecl {
	sp := node(&p.a.subprog, SubprogramDecl{Pos: p.cur().Pos})
	sp.IsFunction = p.next().Kind == KwFUNCTION
	sp.Name = p.expectIdent()
	if p.accept(LPAREN) {
		for {
			pd := node(&p.a.params, ParamDecl{Pos: p.cur().Pos})
			// Optional object class on parameters is accepted and ignored.
			if p.at(KwVARIABLE) || p.at(KwSIGNAL) || p.at(KwCONSTANT) {
				p.next()
			}
			pd.Names = p.parseIdentList()
			p.expect(COLON)
			pd.Dir = p.parseDir()
			pd.Type = p.parseTypeRef()
			sp.Params = append(sp.Params, pd)
			if !p.accept(SEMI) {
				break
			}
		}
		p.expect(RPAREN)
	}
	if sp.IsFunction {
		p.expect(KwRETURN)
		sp.Return = p.parseTypeRef()
	}
	p.expect(KwIS)
	sp.Decls = p.parseDecls()
	p.expect(KwBEGIN)
	sp.Body = p.parseStmts()
	p.expect(KwEND)
	p.accept(KwPROCEDURE)
	p.accept(KwFUNCTION)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return sp
}

// parseConcurrentStmt parses one concurrent statement. Only processes
// (optionally labeled) are supported in the subset.
func (p *Parser) parseConcurrentStmt() *ProcessStmt {
	label := ""
	if p.at(IDENT) && p.peek().Kind == COLON {
		label = p.next().Text
		p.next() // colon
	}
	if !p.at(KwPROCESS) {
		p.errorf(p.cur().Pos, "expected process statement, found %s", p.cur())
		p.sync()
		return nil
	}
	pos := p.next().Pos
	ps := &ProcessStmt{Label: label, Pos: pos}
	if ps.Label == "" {
		ps.Label = fmt.Sprintf("process_l%d", pos.Line)
	}
	if p.accept(LPAREN) {
		ps.Sensitivity = p.parseIdentList()
		p.expect(RPAREN)
	}
	p.accept(KwIS)
	ps.Decls = p.parseDecls()
	p.expect(KwBEGIN)
	ps.Body = p.parseStmts()
	p.expect(KwEND)
	p.expect(KwPROCESS)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return ps
}

// stmt terminators
func (p *Parser) atStmtListEnd() bool {
	switch p.cur().Kind {
	case KwEND, KwELSE, KwELSIF, KwWHEN, EOF:
		return true
	}
	return false
}

func (p *Parser) parseStmts() []Stmt {
	if !p.enter() {
		return nil
	}
	m := p.stmts.mark()
	for !p.atStmtListEnd() {
		before := p.n
		if s := p.parseStmt(); s != nil {
			p.stmts.push(s)
		}
		if p.n == before { // no progress: bail out of a confused state
			p.sync()
		}
	}
	p.leave()
	return p.stmts.pop(m, &p.a.stmtList)
}

func (p *Parser) parseStmt() Stmt {
	switch p.cur().Kind {
	case KwIF:
		return p.parseIf()
	case KwCASE:
		return p.parseCase()
	case KwFOR:
		return p.parseFor("")
	case KwWHILE:
		return p.parseWhile("")
	case KwLOOP:
		return p.parseLoop("")
	case KwWAIT:
		return p.parseWait()
	case KwRETURN:
		pos := p.next().Pos
		rs := node(&p.a.returns, ReturnStmt{Pos: pos})
		if !p.at(SEMI) {
			rs.Value = p.parseExpr()
		}
		p.expect(SEMI)
		return rs
	case KwNULL:
		pos := p.next().Pos
		p.expect(SEMI)
		return node(&p.a.nulls, NullStmt{Pos: pos})
	case KwEXIT:
		pos := p.next().Pos
		es := &ExitStmt{Pos: pos}
		if p.at(IDENT) {
			es.Label = p.next().Text
		}
		if p.accept(KwWHEN) {
			es.Cond = p.parseExpr()
		}
		p.expect(SEMI)
		return es
	case IDENT:
		return p.parseIdentStmt()
	}
	p.errorf(p.cur().Pos, "expected statement, found %s", p.cur())
	p.sync()
	return nil
}

// parseIdentStmt handles statements that begin with an identifier: labeled
// loops, assignments, and procedure calls.
func (p *Parser) parseIdentStmt() Stmt {
	// Labeled loop?
	if p.peek().Kind == COLON {
		label := p.cur().Text
		switch p.peek2().Kind {
		case KwFOR:
			p.next()
			p.next()
			return p.parseFor(label)
		case KwWHILE:
			p.next()
			p.next()
			return p.parseWhile(label)
		case KwLOOP:
			p.next()
			p.next()
			return p.parseLoop(label)
		}
	}
	pos := p.cur().Pos
	name := p.next().Text
	switch p.cur().Kind {
	case LPAREN:
		// Either an indexed assignment target or a procedure call.
		args := p.parseArgs()
		switch p.cur().Kind {
		case ASSIGN:
			p.next()
			v := p.parseExpr()
			p.expect(SEMI)
			return node(&p.a.assigns, AssignStmt{Target: node(&p.a.calls, CallExpr{Name: name, Args: args, Pos: pos}), Value: v, Pos: pos})
		case SIGASSIGN:
			p.next()
			v := p.parseExpr()
			p.expect(SEMI)
			return node(&p.a.assigns, AssignStmt{Target: node(&p.a.calls, CallExpr{Name: name, Args: args, Pos: pos}), Value: v, IsSignal: true, Pos: pos})
		default:
			p.expect(SEMI)
			return node(&p.a.callSts, CallStmt{Name: name, Args: args, Pos: pos})
		}
	case ASSIGN:
		p.next()
		v := p.parseExpr()
		p.expect(SEMI)
		return node(&p.a.assigns, AssignStmt{Target: node(&p.a.names, NameExpr{Name: name, Pos: pos}), Value: v, Pos: pos})
	case SIGASSIGN:
		p.next()
		v := p.parseExpr()
		p.expect(SEMI)
		return node(&p.a.assigns, AssignStmt{Target: node(&p.a.names, NameExpr{Name: name, Pos: pos}), Value: v, IsSignal: true, Pos: pos})
	default:
		// Parameterless procedure call: "Convolve;"
		p.expect(SEMI)
		return node(&p.a.callSts, CallStmt{Name: name, Pos: pos})
	}
}

func (p *Parser) parseArgs() []Expr {
	p.expect(LPAREN)
	m := p.exprs.mark()
	if !p.at(RPAREN) {
		for {
			p.exprs.push(p.parseExpr())
			if !p.accept(COMMA) {
				break
			}
		}
	}
	p.expect(RPAREN)
	return p.exprs.pop(m, &p.a.exprList)
}

func (p *Parser) parseIf() Stmt {
	pos := p.expect(KwIF).Pos
	s := node(&p.a.ifs, IfStmt{Pos: pos})
	s.Cond = p.parseExpr()
	p.expect(KwTHEN)
	s.Then = p.parseStmts()
	for p.at(KwELSIF) {
		epos := p.next().Pos
		cond := p.parseExpr()
		p.expect(KwTHEN)
		body := p.parseStmts()
		s.Elifs = append(s.Elifs, ElifClause{Cond: cond, Body: body, Pos: epos})
	}
	if p.accept(KwELSE) {
		s.Else = p.parseStmts()
	}
	p.expect(KwEND)
	p.expect(KwIF)
	p.expect(SEMI)
	return s
}

func (p *Parser) parseCase() Stmt {
	pos := p.expect(KwCASE).Pos
	s := &CaseStmt{Pos: pos}
	s.Expr = p.parseExpr()
	p.expect(KwIS)
	for p.at(KwWHEN) {
		wpos := p.next().Pos
		w := WhenClause{Pos: wpos}
		if !p.accept(KwOTHERS) {
			m := p.exprs.mark()
			for {
				p.exprs.push(p.parseSimpleExpr())
				if !p.accept(BAR) {
					break
				}
			}
			w.Choices = p.exprs.pop(m, &p.a.exprList)
		}
		p.expect(ARROW)
		w.Body = p.parseStmts()
		s.Whens = append(s.Whens, w)
	}
	p.expect(KwEND)
	p.expect(KwCASE)
	p.expect(SEMI)
	return s
}

func (p *Parser) parseFor(label string) Stmt {
	pos := p.expect(KwFOR).Pos
	s := node(&p.a.fors, ForStmt{Pos: pos, Label: label})
	s.Var = p.expectIdent()
	p.expect(KwIN)
	s.Low = p.parseSimpleExpr()
	switch {
	case p.accept(KwTO):
	case p.accept(KwDOWNTO):
		s.Downto = true
	default:
		p.errorf(p.cur().Pos, "expected 'to' or 'downto' in for range")
	}
	s.High = p.parseSimpleExpr()
	p.expect(KwLOOP)
	s.Body = p.parseStmts()
	p.expect(KwEND)
	p.expect(KwLOOP)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return s
}

func (p *Parser) parseWhile(label string) Stmt {
	pos := p.expect(KwWHILE).Pos
	s := &WhileStmt{Pos: pos, Label: label}
	s.Cond = p.parseExpr()
	p.expect(KwLOOP)
	s.Body = p.parseStmts()
	p.expect(KwEND)
	p.expect(KwLOOP)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return s
}

func (p *Parser) parseLoop(label string) Stmt {
	pos := p.expect(KwLOOP).Pos
	s := &LoopStmt{Pos: pos, Label: label}
	s.Body = p.parseStmts()
	p.expect(KwEND)
	p.expect(KwLOOP)
	if p.at(IDENT) {
		p.next()
	}
	p.expect(SEMI)
	return s
}

func (p *Parser) parseWait() Stmt {
	pos := p.expect(KwWAIT).Pos
	s := node(&p.a.waits, WaitStmt{Pos: pos})
	switch {
	case p.accept(KwON):
		s.OnSignals = p.parseIdentList()
	case p.accept(KwUNTIL):
		s.Until = p.parseExpr()
	case p.accept(KwFOR):
		// Time expressions ("wait for 10 ms") are skipped to the semicolon.
		for !p.at(SEMI) && !p.at(EOF) {
			p.next()
		}
	}
	p.expect(SEMI)
	return s
}

// Expression grammar, loosest to tightest:
//
//	expr     := relation { (and|or|xor|nand|nor) relation }
//	relation := simple [ (=|/=|<|<=|>|>=) simple ]
//	simple   := [sign] term { (+|-|&) term }
//	term     := factor { (*|/|mod|rem) factor }
//	factor   := [not|abs] primary
//	primary  := literal | name | name(args) | name'attr | (expr) | aggregate
func (p *Parser) parseExpr() Expr {
	if !p.enter() {
		return node(&p.a.ints, IntExpr{Pos: p.cur().Pos})
	}
	e := p.parseRelation()
	for {
		op := p.cur().Kind
		switch op {
		case KwAND, KwOR, KwXOR, KwNAND, KwNOR:
			pos := p.next().Pos
			r := p.parseRelation()
			e = node(&p.a.bins, BinExpr{Op: op, L: e, R: r, Pos: pos})
		default:
			p.leave()
			return e
		}
	}
}

func (p *Parser) parseRelation() Expr {
	e := p.parseSimpleExpr()
	op := p.cur().Kind
	switch op {
	case EQ, NEQ, LT, SIGASSIGN, GT, GE:
		pos := p.next().Pos
		r := p.parseSimpleExpr()
		// SIGASSIGN in an expression context is the <= relational operator.
		return node(&p.a.bins, BinExpr{Op: op, L: e, R: r, Pos: pos})
	}
	return e
}

func (p *Parser) parseSimpleExpr() Expr {
	var e Expr
	switch p.cur().Kind {
	case MINUS, PLUS:
		op := p.next()
		e = node(&p.a.unaries, UnaryExpr{Op: op.Kind, X: p.parseTerm(), Pos: op.Pos})
	default:
		e = p.parseTerm()
	}
	for {
		op := p.cur().Kind
		switch op {
		case PLUS, MINUS, AMP:
			pos := p.next().Pos
			r := p.parseTerm()
			e = node(&p.a.bins, BinExpr{Op: op, L: e, R: r, Pos: pos})
		default:
			return e
		}
	}
}

func (p *Parser) parseTerm() Expr {
	e := p.parseFactor()
	for {
		op := p.cur().Kind
		switch op {
		case STAR, SLASH, KwMOD, KwREM:
			pos := p.next().Pos
			r := p.parseFactor()
			e = node(&p.a.bins, BinExpr{Op: op, L: e, R: r, Pos: pos})
		default:
			return e
		}
	}
}

func (p *Parser) parseFactor() Expr {
	switch p.cur().Kind {
	case KwNOT, KwABS:
		if !p.enter() {
			return node(&p.a.ints, IntExpr{Pos: p.cur().Pos})
		}
		op := p.next()
		x := p.parseFactor()
		p.leave()
		return node(&p.a.unaries, UnaryExpr{Op: op.Kind, X: x, Pos: op.Pos})
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		return node(&p.a.ints, IntExpr{Val: t.Val, Pos: t.Pos})
	case CHARLIT:
		p.next()
		return &CharExpr{Val: byte(t.Val), Pos: t.Pos}
	case STRLIT:
		p.next()
		return &StrExpr{Val: t.Text, Pos: t.Pos}
	case IDENT:
		p.next()
		switch p.cur().Kind {
		case LPAREN:
			args := p.parseArgs()
			return node(&p.a.calls, CallExpr{Name: t.Text, Args: args, Pos: t.Pos})
		case TICK:
			p.next()
			attr := p.expectIdent()
			return &AttrExpr{Prefix: t.Text, Attr: attr, Pos: t.Pos}
		}
		return node(&p.a.names, NameExpr{Name: t.Text, Pos: t.Pos})
	case LPAREN:
		p.next()
		if p.at(KwOTHERS) {
			return p.parseAggregateTail(nil, t.Pos)
		}
		e := p.parseExpr()
		switch p.cur().Kind {
		case ARROW, COMMA:
			return p.parseAggregateTail(e, t.Pos)
		}
		p.expect(RPAREN)
		return e
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	return node(&p.a.ints, IntExpr{Val: 0, Pos: t.Pos})
}

// parseAggregateTail finishes parsing an aggregate whose opening paren has
// been consumed. first is the already-parsed first element (nil when the
// aggregate starts with 'others').
func (p *Parser) parseAggregateTail(first Expr, pos Pos) Expr {
	agg := &AggregateExpr{Pos: pos}
	// Handle the already-parsed first element.
	if first != nil {
		if p.accept(ARROW) {
			agg.Assocs = append(agg.Assocs, AggrAssoc{Choice: first, Value: p.parseExpr()})
		} else {
			agg.Assocs = append(agg.Assocs, AggrAssoc{Value: first})
		}
		if !p.accept(COMMA) {
			p.expect(RPAREN)
			return agg
		}
	}
	for {
		var a AggrAssoc
		if p.accept(KwOTHERS) {
			p.expect(ARROW)
			a = AggrAssoc{Value: p.parseExpr(), IsOthers: true}
		} else {
			e := p.parseExpr()
			if p.accept(ARROW) {
				a = AggrAssoc{Choice: e, Value: p.parseExpr()}
			} else {
				a = AggrAssoc{Value: e}
			}
		}
		agg.Assocs = append(agg.Assocs, a)
		if !p.accept(COMMA) {
			break
		}
	}
	p.expect(RPAREN)
	return agg
}

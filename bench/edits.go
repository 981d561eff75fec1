package main

import (
	"fmt"
	"math/rand"

	"specsyn/internal/builder"
	"specsyn/internal/vhdl"
)

// editKind is the designer intent behind one generated edit.
type editKind int

const (
	// editNull toggles a leading "null;" in one random process: a
	// one-behavior edit that the incremental rebuild patches.
	editNull editKind = iota
	// editComment changes only the trailing comment: no semantic change.
	editComment
	// editSignal toggles an unused architecture-level signal: a structural
	// change that forces a full rebuild.
	editSignal
)

func (k editKind) String() string {
	return [...]string{"null", "comment", "signal"}[k]
}

// matches reports whether a rebuild delta is what the edit's intent
// predicts.
func (k editKind) matches(d builder.Delta) bool {
	switch k {
	case editComment:
		return d.Empty()
	case editSignal:
		return d.Full
	}
	return !d.Empty() && !d.Full
}

// editor generates a seeded chain of edits of one specification. Every
// source it hands out carries a unique trailing comment, so the program's
// front-end cache can only ever hit on the previous source of the chain.
type editor struct {
	tag   string
	df    *vhdl.DesignFile
	arch  *vhdl.Architecture
	procs []*vhdl.ProcessStmt
	sig   *vhdl.ObjectDecl // the unused signal, while present
	rng   *rand.Rand
	text  string // formatted current specification, without the comment
	n     int
}

func newEditor(tag, src string, seed int64) (*editor, error) {
	df, err := vhdl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}
	e := &editor{tag: tag, df: df, rng: rand.New(rand.NewSource(seed))}
	for _, a := range df.Architectures {
		e.procs = append(e.procs, a.Processes...)
	}
	if len(df.Architectures) == 0 || len(e.procs) == 0 {
		return nil, fmt.Errorf("%s: no process to edit", tag)
	}
	e.arch = df.Architectures[0]
	e.text = vhdl.Format(df)
	return e, nil
}

// source is the current specification text.
func (e *editor) source() string { return uniqueSource(e.text, e.tag+" edit", e.n) }

// next applies one seeded edit: 80% null toggles, 10% comment-only edits
// and 10% signal toggles.
func (e *editor) next() (string, editKind) {
	e.n++
	kind := editNull
	switch r := e.rng.Intn(10); {
	case r == 0:
		kind = editComment
	case r == 1:
		kind = editSignal
	}
	switch kind {
	case editNull:
		p := e.procs[e.rng.Intn(len(e.procs))]
		if len(p.Body) > 0 {
			if _, ok := p.Body[0].(*vhdl.NullStmt); ok {
				p.Body = p.Body[1:]
				break
			}
		}
		p.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, p.Body...)
	case editSignal:
		if e.sig != nil {
			for i, d := range e.arch.Decls {
				if d == vhdl.Decl(e.sig) {
					e.arch.Decls = append(e.arch.Decls[:i:i], e.arch.Decls[i+1:]...)
					break
				}
			}
			e.sig = nil
			break
		}
		e.sig = &vhdl.ObjectDecl{Class: vhdl.ClassSignal, Names: []string{"bench_unused"},
			Type: &vhdl.TypeRef{Name: "integer"}}
		e.arch.Decls = append(e.arch.Decls[:len(e.arch.Decls):len(e.arch.Decls)], e.sig)
	}
	if kind != editComment {
		e.text = vhdl.Format(e.df)
	}
	return e.source(), kind
}

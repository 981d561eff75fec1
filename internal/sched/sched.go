// Package sched derives the concurrency tags of §2.3/§2.4.1: SLIF marks
// same-source channels that could be accessed concurrently with a shared
// tag. The paper obtains this information "by scheduling the contents of
// the behavior"; this package implements that scheduling as an ASAP
// schedule of the behavior's top-level statements under data dependencies.
//
// Two top-level statements conflict when one writes an object the other
// reads or writes (RAW/WAR/WAW), or when either transfers control
// (call/wait/return), which serializes. Statements land in the earliest
// step after all their dependencies; accesses performed in the same step
// could overlap, so the channels they belong to share a tag. A channel
// whose target is touched in several different steps is strictly
// sequential and gets no tag, matching the paper's conservative baseline.
//
// A Scheduler analyses each behavior once. It interns the behavior's
// targets to dense int32 IDs, schedules in one pass over the accesses by
// keeping the latest reader and writer step of each target, and carries
// its buffers over from one behavior to the next.
package sched

import (
	"specsyn/internal/sem"
	"specsyn/internal/vhdl"
)

// NoTag mirrors core.NoTag without importing core (sched is independent of
// the graph representation).
const NoTag = -1

// multiStep marks a target touched in more than one step.
const multiStep = -1

// access is one resolved read or write of a target by ID.
type access struct {
	id    int32
	write bool
}

// A Scheduler schedules behaviors one at a time and holds the result of
// the last Run. The zero value is ready to use; it is not safe for
// concurrent use.
type Scheduler struct {
	d *sem.Design
	b *sem.Behavior

	ids    map[string]int32 // target unique ID → dense ID
	acc    []access         // statement i's accesses are acc[end[i-1]:end[i]]
	end    []int32
	serial []bool // statement transfers control: orders against everything
	steps  []int

	last    []int // by target ID: the latest step writing it, then reading it
	tags    []int // by target ID
	perStep []int // step → number of single-step targets in it
}

// Run schedules behavior b of design d: it assigns an ASAP control step
// (1-based) to each top-level statement and a concurrency tag to each
// accessed target. Targets only touched within one control step share
// that step's number as their tag; targets touched in several steps, and
// singleton groups, get NoTag. The result stays readable through Steps and
// Tag until the next Run.
func (s *Scheduler) Run(d *sem.Design, b *sem.Behavior) {
	s.d, s.b = d, b
	s.analyze()
	s.schedule()
	s.tag()
	s.d, s.b = nil, nil
}

// Steps returns the control step of each top-level statement of the
// behavior last Run, in statement order.
func (s *Scheduler) Steps() []int { return s.steps }

// Tag returns the concurrency tag of the target sym names, and false when
// the behavior last Run does not access it.
func (s *Scheduler) Tag(sym *sem.Symbol) (int, bool) {
	id, ok := s.ids[targetID(sym)]
	if !ok {
		return 0, false
	}
	return s.tags[id], true
}

// targetID names the target a symbol resolves to; the ID is unique among
// a design's behaviors, objects and ports.
func targetID(sym *sem.Symbol) string {
	switch sym.Kind {
	case sem.SymObject:
		return sym.Object.UniqueID
	case sem.SymPort:
		return sym.Port.Name
	case sem.SymBehavior:
		return sym.Behavior.UniqueID
	}
	return ""
}

// analyze records the accesses of every top-level statement of s.b.
func (s *Scheduler) analyze() {
	if s.ids == nil {
		s.ids = make(map[string]int32)
	}
	clear(s.ids)
	s.acc, s.end, s.serial = s.acc[:0], s.end[:0], s.serial[:0]
	for _, st := range s.b.Body {
		s.serial = append(s.serial, false)
		s.collect(st)
		s.end = append(s.end, int32(len(s.acc)))
	}
}

// schedule places each statement one step after the latest earlier
// statement it conflicts with: one of the two transfers control, or one
// writes a target the other reads or writes. It keeps, per target, the
// latest step of an earlier writer and of an earlier reader, so it runs in
// time and memory proportional to the accesses.
func (s *Scheduler) schedule() {
	n, targets := len(s.end), len(s.ids)
	s.last = resize(s.last, 2*targets)
	clear(s.last)
	lastWrite, lastRead := s.last[:targets], s.last[targets:]
	s.steps = resize(s.steps, n)
	latest, serial := 0, 0 // the latest step of any statement, of a serial one
	for i := range n {
		acc := s.stmtAcc(i)
		after := latest // a serial statement follows everything
		if !s.serial[i] {
			after = serial
			for _, a := range acc {
				after = max(after, lastWrite[a.id])
				if a.write {
					after = max(after, lastRead[a.id])
				}
			}
		}
		step := after + 1
		for _, a := range acc {
			if a.write {
				lastWrite[a.id] = max(lastWrite[a.id], step)
			} else {
				lastRead[a.id] = max(lastRead[a.id], step)
			}
		}
		s.steps[i] = step
		latest = max(latest, step)
		if s.serial[i] {
			serial = max(serial, step)
		}
	}
}

// tag gives each target the single step it is touched in, when that step
// touches at least one other single-step target, and NoTag otherwise.
func (s *Scheduler) tag() {
	s.tags = resize(s.tags, len(s.ids))
	clear(s.tags) // 0: not touched yet
	for i, step := range s.steps {
		for _, a := range s.stmtAcc(i) {
			switch t := s.tags[a.id]; t {
			case 0:
				s.tags[a.id] = step
			case step, multiStep:
			default:
				s.tags[a.id] = multiStep
			}
		}
	}
	s.perStep = resize(s.perStep, len(s.steps)+1)
	clear(s.perStep)
	for _, t := range s.tags {
		if t > 0 {
			s.perStep[t]++
		}
	}
	for id, t := range s.tags {
		if t <= 0 || s.perStep[t] < 2 {
			s.tags[id] = NoTag
		}
	}
}

// stmtAcc returns the accesses of statement i.
func (s *Scheduler) stmtAcc(i int) []access {
	start := int32(0)
	if i > 0 {
		start = s.end[i-1]
	}
	return s.acc[start:s.end[i]]
}

// resize returns buf with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// note records an access to a resolved name by the current statement.
func (s *Scheduler) note(name string, write bool) {
	sym := s.d.Lookup(s.b, name)
	if sym == nil {
		return
	}
	switch sym.Kind {
	case sem.SymObject:
		if sym.Object.IsParam {
			return
		}
	case sem.SymPort:
	case sem.SymBehavior:
		s.serial[len(s.serial)-1] = true // calls serialize in the baseline schedule
		write = false
	default:
		return
	}
	key := targetID(sym)
	id, ok := s.ids[key]
	if !ok {
		id = int32(len(s.ids))
		s.ids[key] = id
	}
	s.acc = append(s.acc, access{id: id, write: write})
}

func (s *Scheduler) collectExpr(e vhdl.Expr) {
	vhdl.WalkExpr(e, func(x vhdl.Expr) {
		switch n := x.(type) {
		case *vhdl.NameExpr:
			s.note(n.Name, false)
		case *vhdl.CallExpr:
			s.note(n.Name, false)
		case *vhdl.AttrExpr:
			s.note(n.Prefix, false)
		}
	})
}

func (s *Scheduler) collectStmts(stmts []vhdl.Stmt) {
	for _, st := range stmts {
		s.collect(st)
	}
}

// collect accumulates the footprint of a statement subtree into the
// current statement's.
func (s *Scheduler) collect(st vhdl.Stmt) {
	switch st := st.(type) {
	case *vhdl.AssignStmt:
		s.collectExpr(st.Value)
		switch t := st.Target.(type) {
		case *vhdl.NameExpr:
			s.note(t.Name, true)
		case *vhdl.CallExpr:
			s.note(t.Name, true)
			for _, a := range t.Args {
				s.collectExpr(a)
			}
		}
	case *vhdl.IfStmt:
		s.collectExpr(st.Cond)
		s.collectStmts(st.Then)
		for _, el := range st.Elifs {
			s.collectExpr(el.Cond)
			s.collectStmts(el.Body)
		}
		s.collectStmts(st.Else)
	case *vhdl.CaseStmt:
		s.collectExpr(st.Expr)
		for _, w := range st.Whens {
			s.collectStmts(w.Body)
		}
	case *vhdl.ForStmt:
		s.collectStmts(st.Body)
	case *vhdl.WhileStmt:
		s.collectExpr(st.Cond)
		s.collectStmts(st.Body)
	case *vhdl.LoopStmt:
		s.collectStmts(st.Body)
	case *vhdl.ExitStmt:
		s.collectExpr(st.Cond)
	case *vhdl.CallStmt:
		s.note(st.Name, false)
		s.serial[len(s.serial)-1] = true
		for _, a := range st.Args {
			s.collectExpr(a)
		}
	case *vhdl.WaitStmt:
		s.serial[len(s.serial)-1] = true
		for _, sig := range st.OnSignals {
			s.note(sig, false)
		}
		s.collectExpr(st.Until)
	case *vhdl.ReturnStmt:
		s.serial[len(s.serial)-1] = true
		s.collectExpr(st.Value)
	}
}

package sem

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"specsyn/internal/vhdl"
)

// SymKind classifies resolved symbols.
type SymKind int

// Symbol kinds.
const (
	SymPort SymKind = iota
	SymObject
	SymBehavior
	SymEnumLit
	SymType
	SymLoopVar
)

// Symbol is one resolved name.
type Symbol struct {
	Kind     SymKind
	Name     string
	Port     *Port
	Object   *Object
	Behavior *Behavior
	Type     *Type
	ConstVal int64 // enum literal position, or constant value when HasConst
	HasConst bool
}

// Port is an elaborated entity port.
type Port struct {
	Name string
	Dir  vhdl.PortDir
	Type *Type
}

// Object is an elaborated variable, signal or constant. Every Object
// becomes a variable node in SLIF.
type Object struct {
	Name     string // declared name
	UniqueID string // collision-free name used as the SLIF node name
	Class    vhdl.ObjectClass
	Type     *Type
	Owner    *Behavior // declaring process/subprogram; nil at architecture level
	Implicit bool      // created for an unresolved name
	IsParam  bool      // subprogram parameter: transferred via the call channel, not a SLIF node
	Init     vhdl.Expr // declaration initializer, if any (used by the simulator)
	Pos      vhdl.Pos  // declaration position; zero for implicit objects
}

// Param is an elaborated subprogram parameter.
type Param struct {
	Name string
	Dir  vhdl.PortDir
	Type *Type
}

// Behavior is an elaborated process, procedure or function. Behaviors map
// one-to-one onto SLIF behavior nodes.
type Behavior struct {
	Name       string // declared name or process label
	UniqueID   string // collision-free name used as the SLIF node name
	IsProcess  bool
	IsFunction bool
	Params     []*Param
	Return     *Type
	Decls      []*Object // locally declared objects
	Body       []vhdl.Stmt
	Implicit   bool      // created for an unresolved call target
	Parent     *Behavior // lexically enclosing behavior, nil at architecture level
	Pos        vhdl.Pos  // declaration position; zero for implicit behaviors
	scope      *scope
}

// ParamBits returns the number of bits needed to transfer all parameters
// (and the function result, if any) in one call, per §2.4.1.
func (b *Behavior) ParamBits() int {
	n := 0
	for _, p := range b.Params {
		n += p.Type.AccessBits()
	}
	if b.Return != nil {
		n += b.Return.Bits()
	}
	return n
}

// Design is the elaborated model of one entity/architecture pair.
type Design struct {
	Name      string // entity name
	ArchName  string
	Ports     []*Port
	Types     map[string]*Type
	Behaviors []*Behavior
	Objects   []*Object
	Warnings  []string

	arch *scope
}

// scope is a lexical scope chain.
type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, syms: make(map[string]*Symbol)}
}

func (s *scope) define(name string, sym *Symbol) { s.syms[name] = sym }

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

// Lookup resolves a name in the behavior's scope chain (locals and
// parameters, then the enclosing process if any, then architecture
// declarations, entity ports and predefined names). It returns nil for
// names that did not resolve during elaboration — after a successful
// Elaborate, every name that appears in a body resolves.
func (d *Design) Lookup(b *Behavior, name string) *Symbol {
	if b != nil && b.scope != nil {
		return b.scope.lookup(name)
	}
	return d.arch.lookup(name)
}

// elaborator carries state while elaborating a design file.
type elaborator struct {
	d    *Design
	errs []string
}

func (e *elaborator) errorf(pos vhdl.Pos, format string, args ...any) {
	e.errs = append(e.errs, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (e *elaborator) warnf(format string, args ...any) {
	e.d.Warnings = append(e.d.Warnings, fmt.Sprintf(format, args...))
}

// ElaborateAll elaborates every entity in the file that has a matching
// architecture, in source order.
func ElaborateAll(df *vhdl.DesignFile) ([]*Design, error) {
	var designs []*Design
	var errs []string
	for _, ent := range df.Entities {
		var arch *vhdl.Architecture
		for _, a := range df.Architectures {
			if a.EntityName == ent.Name {
				arch = a
				break
			}
		}
		if arch == nil {
			errs = append(errs, fmt.Sprintf("entity %s has no architecture", ent.Name))
			continue
		}
		d, err := elaboratePair(ent, arch)
		if err != nil {
			errs = append(errs, err.Error())
		}
		if d != nil {
			designs = append(designs, d)
		}
	}
	if len(designs) == 0 && len(errs) == 0 {
		errs = append(errs, "design file contains no entity/architecture pair")
	}
	if len(errs) > 0 {
		return designs, errors.New(strings.Join(errs, "\n"))
	}
	return designs, nil
}

// Elaborate elaborates a file expected to contain exactly one design.
func Elaborate(df *vhdl.DesignFile) (*Design, error) {
	ds, err := ElaborateAll(df)
	if err != nil {
		return nil, err
	}
	if len(ds) != 1 {
		return nil, fmt.Errorf("expected exactly one design, found %d", len(ds))
	}
	return ds[0], nil
}

func elaboratePair(ent *vhdl.Entity, arch *vhdl.Architecture) (*Design, error) {
	e := &elaborator{d: &Design{
		Name:     ent.Name,
		ArchName: arch.Name,
		Types:    predefinedTypes(),
	}}
	d := e.d
	d.arch = newScope(nil)
	for name, t := range d.Types {
		d.arch.define(name, &Symbol{Kind: SymType, Name: name, Type: t})
	}

	// Entity ports.
	for _, pd := range ent.Ports {
		t := e.resolveTypeRef(d.arch, pd.Type)
		for _, name := range pd.Names {
			p := &Port{Name: name, Dir: pd.Dir, Type: t}
			d.Ports = append(d.Ports, p)
			d.arch.define(name, &Symbol{Kind: SymPort, Name: name, Port: p, Type: t})
		}
	}

	// Architecture declarative part: first pass registers names so that
	// subprograms and processes may reference one another; the second pass
	// elaborates bodies.
	e.declarePass(d.arch, arch.Decls, nil)
	for _, ps := range arch.Processes {
		e.declareProcess(d.arch, ps)
	}
	e.bodyPass(d.arch, arch.Decls, nil)
	for _, ps := range arch.Processes {
		e.elabProcessBody(d.arch, ps)
	}

	// Resolve every name used in every body, creating implicit symbols for
	// unresolved calls (external behaviors) and names (external variables),
	// so downstream passes never see unresolved names.
	e.resolveBodies()

	e.assignUniqueIDs()

	if len(e.errs) > 0 {
		return d, errors.New(strings.Join(e.errs, "\n"))
	}
	return d, nil
}

// declarePass registers types, objects and subprogram names in sc. owner is
// the enclosing behavior (nil at architecture level).
func (e *elaborator) declarePass(sc *scope, decls []vhdl.Decl, owner *Behavior) {
	d := e.d
	if owner != nil {
		n := 0
		for _, decl := range decls {
			if dd, ok := decl.(*vhdl.ObjectDecl); ok {
				n += len(dd.Names)
			}
		}
		owner.Decls = slices.Grow(owner.Decls, n)
	}
	for _, decl := range decls {
		switch dd := decl.(type) {
		case *vhdl.TypeDecl:
			t := e.elabTypeDef(sc, dd)
			d.Types[dd.Name] = t
			sc.define(dd.Name, &Symbol{Kind: SymType, Name: dd.Name, Type: t})
			for i, lit := range t.EnumLits {
				sc.define(lit, &Symbol{Kind: SymEnumLit, Name: lit, Type: t, ConstVal: int64(i), HasConst: true})
			}
		case *vhdl.SubtypeDecl:
			t := e.resolveTypeRef(sc, dd.Base)
			named := *t
			named.Name = dd.Name
			d.Types[dd.Name] = &named
			sc.define(dd.Name, &Symbol{Kind: SymType, Name: dd.Name, Type: &named})
		case *vhdl.ObjectDecl:
			t := e.resolveTypeRef(sc, dd.Type)
			for _, name := range dd.Names {
				sym := newObjectSym(name, Object{Name: name, Class: dd.Class, Type: t, Owner: owner, Init: dd.Init, Pos: dd.Pos})
				obj := sym.Object
				d.Objects = append(d.Objects, obj)
				if owner != nil {
					owner.Decls = append(owner.Decls, obj)
				}
				if dd.Class == vhdl.ClassConstant && dd.Init != nil {
					if v, ok := e.evalConst(sc, dd.Init); ok {
						sym.ConstVal, sym.HasConst = v, true
					}
				}
				sc.define(name, sym)
			}
		case *vhdl.SubprogramDecl:
			b := &Behavior{Name: dd.Name, IsFunction: dd.IsFunction, Body: dd.Body, Parent: owner, Pos: dd.Pos}
			for _, pd := range dd.Params {
				t := e.resolveTypeRef(sc, pd.Type)
				for _, n := range pd.Names {
					b.Params = append(b.Params, &Param{Name: n, Dir: pd.Dir, Type: t})
				}
			}
			if dd.Return != nil {
				b.Return = e.resolveTypeRef(sc, dd.Return)
			}
			d.Behaviors = append(d.Behaviors, b)
			sc.define(dd.Name, &Symbol{Kind: SymBehavior, Name: dd.Name, Behavior: b, Type: b.Return})
		}
	}
}

// newObjectSym returns the symbol of obj, declared as name. The two share
// one allocation.
func newObjectSym(name string, obj Object) *Symbol {
	os := &struct {
		sym Symbol
		obj Object
	}{obj: obj}
	os.sym = Symbol{Kind: SymObject, Name: name, Object: &os.obj, Type: obj.Type}
	return &os.sym
}

// bodyPass elaborates subprogram bodies declared in decls: builds their
// local scopes (params + locals) and recursively handles nested decls.
func (e *elaborator) bodyPass(sc *scope, decls []vhdl.Decl, owner *Behavior) {
	for _, decl := range decls {
		dd, ok := decl.(*vhdl.SubprogramDecl)
		if !ok {
			continue
		}
		sym := sc.lookup(dd.Name)
		if sym == nil || sym.Kind != SymBehavior {
			continue
		}
		b := sym.Behavior
		b.scope = newScope(sc)
		for _, p := range b.Params {
			b.scope.define(p.Name, newObjectSym(p.Name, Object{Name: p.Name, Class: vhdl.ClassVariable, Type: p.Type, Owner: b, IsParam: true}))
		}
		// Parameters are not SLIF nodes; mark them by not appending to
		// d.Objects. Their Object field exists only so expression walkers
		// can treat them uniformly as local data.
		e.declarePass(b.scope, dd.Decls, b)
		e.bodyPass(b.scope, dd.Decls, b)
	}
}

func (e *elaborator) declareProcess(sc *scope, ps *vhdl.ProcessStmt) {
	b := &Behavior{Name: ps.Label, IsProcess: true, Body: ps.Body, Pos: ps.Pos}
	e.d.Behaviors = append(e.d.Behaviors, b)
	sc.define(ps.Label, &Symbol{Kind: SymBehavior, Name: ps.Label, Behavior: b})
}

func (e *elaborator) elabProcessBody(sc *scope, ps *vhdl.ProcessStmt) {
	sym := sc.lookup(ps.Label)
	if sym == nil || sym.Kind != SymBehavior {
		return
	}
	b := sym.Behavior
	b.scope = newScope(sc)
	e.declarePass(b.scope, ps.Decls, b)
	e.bodyPass(b.scope, ps.Decls, b)
}

// resolveTypeRef resolves a type mark plus optional constraints to a
// concrete type.
func (e *elaborator) resolveTypeRef(sc *scope, tr *vhdl.TypeRef) *Type {
	if tr == nil {
		return e.d.Types["integer"]
	}
	base := e.d.Types[tr.Name]
	if base == nil {
		if sym := sc.lookup(tr.Name); sym != nil && sym.Kind == SymType {
			base = sym.Type
		}
	}
	if base == nil {
		e.errorf(tr.Pos, "unknown type %q (defaulting to integer)", tr.Name)
		base = e.d.Types["integer"]
	}
	if tr.Range != nil {
		lo, _ := e.evalConst(sc, tr.Range.Low)
		hi, ok := e.evalConst(sc, tr.Range.High)
		if !ok {
			e.errorf(tr.Pos, "non-constant range on type %q", tr.Name)
			return base
		}
		return &Type{Name: tr.Name, Kind: KindInteger, Low: lo, High: hi}
	}
	if tr.Index != nil {
		lo, _ := e.evalConst(sc, tr.Index.Low)
		hi, ok := e.evalConst(sc, tr.Index.High)
		if !ok {
			e.errorf(tr.Pos, "non-constant index constraint on type %q", tr.Name)
			return base
		}
		elem := base
		if base.Kind == KindArray {
			elem = base.Elem
		}
		return &Type{Name: tr.Name, Kind: KindArray, Elem: elem, Len: hi - lo + 1, IdxLow: lo}
	}
	return base
}

func (e *elaborator) elabTypeDef(sc *scope, td *vhdl.TypeDecl) *Type {
	switch {
	case td.Def.Array != nil:
		ad := td.Def.Array
		lo, _ := e.evalConst(sc, ad.Low)
		hi, ok := e.evalConst(sc, ad.High)
		if !ok {
			e.errorf(td.Pos, "non-constant array bounds in type %q", td.Name)
			hi = lo
		}
		elem := e.resolveTypeRef(sc, ad.Element)
		return &Type{Name: td.Name, Kind: KindArray, Elem: elem, Len: hi - lo + 1, IdxLow: lo}
	case td.Def.Range != nil:
		lo, _ := e.evalConst(sc, td.Def.Range.Low)
		hi, ok := e.evalConst(sc, td.Def.Range.High)
		if !ok {
			e.errorf(td.Pos, "non-constant range in type %q", td.Name)
			hi = lo
		}
		return &Type{Name: td.Name, Kind: KindInteger, Low: lo, High: hi}
	default:
		return &Type{Name: td.Name, Kind: KindEnum, EnumLits: td.Def.EnumLits}
	}
}

// evalConst evaluates a static expression: literals, constants with static
// initializers, enum literal positions, and integer arithmetic over them.
func (e *elaborator) evalConst(sc *scope, expr vhdl.Expr) (int64, bool) {
	switch x := expr.(type) {
	case *vhdl.IntExpr:
		return x.Val, true
	case *vhdl.CharExpr:
		return int64(x.Val), true
	case *vhdl.NameExpr:
		if sym := sc.lookup(x.Name); sym != nil && sym.HasConst {
			return sym.ConstVal, true
		}
		return 0, false
	case *vhdl.UnaryExpr:
		v, ok := e.evalConst(sc, x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case vhdl.MINUS:
			return -v, true
		case vhdl.PLUS:
			return v, true
		case vhdl.KwABS:
			if v < 0 {
				return -v, true
			}
			return v, true
		}
		return 0, false
	case *vhdl.BinExpr:
		l, ok1 := e.evalConst(sc, x.L)
		r, ok2 := e.evalConst(sc, x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case vhdl.PLUS:
			return l + r, true
		case vhdl.MINUS:
			return l - r, true
		case vhdl.STAR:
			return l * r, true
		case vhdl.SLASH:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case vhdl.KwMOD:
			if r == 0 {
				return 0, false
			}
			return ((l % r) + r) % r, true
		case vhdl.KwREM:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
		return 0, false
	}
	return 0, false
}

// EvalStatic evaluates a static expression in a behavior's scope. It is
// exported for the frequency engine, which needs loop bounds.
func (d *Design) EvalStatic(b *Behavior, expr vhdl.Expr) (int64, bool) {
	e := &elaborator{d: d}
	sc := d.arch
	if b != nil && b.scope != nil {
		sc = b.scope
	}
	return e.evalConst(sc, expr)
}

// resolveBodies walks every behavior body resolving every referenced name.
// Call targets that do not resolve become implicit external behaviors;
// other unresolved names become implicit architecture-level variables. Both
// are reported as warnings.
func (e *elaborator) resolveBodies() {
	d := e.d
	// Iterate with an index: implicit behaviors appended during the walk
	// have empty bodies, so walking them is trivial but keeps the loop sound.
	for i := 0; i < len(d.Behaviors); i++ {
		b := d.Behaviors[i]
		loopVars := map[string]int{}
		var walkExpr func(expr vhdl.Expr)
		walkExpr = func(expr vhdl.Expr) {
			switch x := expr.(type) {
			case *vhdl.NameExpr:
				e.resolveName(b, x.Name, loopVars, false)
			case *vhdl.AttrExpr:
				e.resolveName(b, x.Prefix, loopVars, false)
			case *vhdl.CallExpr:
				e.resolveName(b, x.Name, loopVars, true)
				for _, a := range x.Args {
					walkExpr(a)
				}
			case *vhdl.BinExpr:
				walkExpr(x.L)
				walkExpr(x.R)
			case *vhdl.UnaryExpr:
				walkExpr(x.X)
			case *vhdl.AggregateExpr:
				for _, a := range x.Assocs {
					if a.Choice != nil {
						walkExpr(a.Choice)
					}
					walkExpr(a.Value)
				}
			}
		}
		var walkStmts func(stmts []vhdl.Stmt)
		walkStmts = func(stmts []vhdl.Stmt) {
			for _, s := range stmts {
				switch st := s.(type) {
				case *vhdl.AssignStmt:
					walkExpr(st.Target)
					walkExpr(st.Value)
				case *vhdl.IfStmt:
					walkExpr(st.Cond)
					walkStmts(st.Then)
					for _, el := range st.Elifs {
						walkExpr(el.Cond)
						walkStmts(el.Body)
					}
					walkStmts(st.Else)
				case *vhdl.CaseStmt:
					walkExpr(st.Expr)
					for _, w := range st.Whens {
						for _, c := range w.Choices {
							walkExpr(c)
						}
						walkStmts(w.Body)
					}
				case *vhdl.ForStmt:
					walkExpr(st.Low)
					walkExpr(st.High)
					loopVars[st.Var]++
					walkStmts(st.Body)
					loopVars[st.Var]--
				case *vhdl.WhileStmt:
					walkExpr(st.Cond)
					walkStmts(st.Body)
				case *vhdl.LoopStmt:
					walkStmts(st.Body)
				case *vhdl.ExitStmt:
					if st.Cond != nil {
						walkExpr(st.Cond)
					}
				case *vhdl.CallStmt:
					e.resolveName(b, st.Name, loopVars, true)
					for _, a := range st.Args {
						walkExpr(a)
					}
				case *vhdl.WaitStmt:
					for _, sig := range st.OnSignals {
						e.resolveName(b, sig, loopVars, false)
					}
					if st.Until != nil {
						walkExpr(st.Until)
					}
				case *vhdl.ReturnStmt:
					if st.Value != nil {
						walkExpr(st.Value)
					}
				}
			}
		}
		walkStmts(b.Body)
	}
}

// resolveName resolves one name use; isCall reports whether it appeared in
// call position (possibly an array index — resolution decides).
func (e *elaborator) resolveName(b *Behavior, name string, loopVars map[string]int, isCall bool) {
	if loopVars[name] > 0 {
		return
	}
	sc := e.d.arch
	if b.scope != nil {
		sc = b.scope
	}
	if sym := sc.lookup(name); sym != nil {
		return
	}
	d := e.d
	if isCall {
		nb := &Behavior{Name: name, Implicit: true}
		d.Behaviors = append(d.Behaviors, nb)
		d.arch.define(name, &Symbol{Kind: SymBehavior, Name: name, Behavior: nb})
		e.warnf("call target %q is undeclared; created implicit external behavior", name)
		return
	}
	t := d.Types["integer"]
	obj := &Object{Name: name, Class: vhdl.ClassVariable, Type: t, Implicit: true}
	d.Objects = append(d.Objects, obj)
	d.arch.define(name, &Symbol{Kind: SymObject, Name: name, Object: obj, Type: t})
	e.warnf("name %q is undeclared; created implicit variable", name)
}

// assignUniqueIDs gives every behavior and object a collision-free node
// name: the declared name when unique, otherwise qualified by owner.
func (e *elaborator) assignUniqueIDs() {
	d := e.d
	count := map[string]int{}
	for _, b := range d.Behaviors {
		count[b.Name]++
	}
	for _, o := range d.Objects {
		count[o.Name]++
	}
	for _, p := range d.Ports {
		count[p.Name]++
	}
	used := map[string]bool{}
	// pick qualifies a name by its owner, if any, only when it collides.
	pick := func(short string, owner *Behavior) string {
		name := short
		if count[short] > 1 || used[name] {
			if owner != nil {
				short = owner.Name + "." + short
			}
			name = short
		}
		for i := 2; used[name]; i++ {
			name = fmt.Sprintf("%s_%d", short, i)
		}
		used[name] = true
		return name
	}
	for _, b := range d.Behaviors {
		b.UniqueID = pick(b.Name, nil)
	}
	for _, o := range d.Objects {
		o.UniqueID = pick(o.Name, o.Owner)
	}
}

package vhdl

// arena hands out the parser's most frequent AST nodes, and the backing
// arrays of its lists, from chunks: a parse makes one allocation per chunk
// instead of one per node. Nodes cut from one chunk stay reachable
// together, which matches how a tree is held: whole, by the design
// elaborated from it.
type arena struct {
	ints    []IntExpr
	names   []NameExpr
	calls   []CallExpr
	bins    []BinExpr
	unaries []UnaryExpr
	assigns []AssignStmt
	ifs     []IfStmt
	fors    []ForStmt
	nulls   []NullStmt
	returns []ReturnStmt
	callSts []CallStmt
	waits   []WaitStmt
	typeRef []TypeRef
	ranges  []RangeDef
	objects []ObjectDecl
	params  []ParamDecl
	subprog []SubprogramDecl

	stmtList  []Stmt
	exprList  []Expr
	declList  []Decl
	identList []string
}

// chunkLen is the number of nodes or list elements one chunk holds.
const chunkLen = 64

// node returns a pointer to a copy of v cut from *chunk.
func node[T any](chunk *[]T, v T) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, chunkLen)
	}
	x := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	*x = v
	return x
}

// list returns a copy of items cut from *chunk, nil when items is empty.
// Its capacity is its length, so an append to it reallocates instead of
// writing into the chunk.
func list[T any](chunk *[]T, items []T) []T {
	n := len(items)
	if n == 0 {
		return nil
	}
	if len(*chunk) < n {
		*chunk = make([]T, max(n, 4*chunkLen))
	}
	out := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	copy(out, items)
	return out
}

// stack collects the elements of lists that nest (a statement list inside
// a statement list, an argument list inside an argument list) on one
// buffer: each list pushes on top of the lists that enclose it and pops
// its own elements off when it ends.
type stack[T any] struct{ buf []T }

func (s *stack[T]) mark() int { return len(s.buf) }
func (s *stack[T]) push(v T)  { s.buf = append(s.buf, v) }

// pop returns the elements pushed since mark m, cut from *chunk, and
// removes them from the stack.
func (s *stack[T]) pop(m int, chunk *[]T) []T {
	out := list(chunk, s.buf[m:])
	clear(s.buf[m:])
	s.buf = s.buf[:m]
	return out
}

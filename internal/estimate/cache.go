package estimate

import (
	"sync"

	"specsyn/internal/core"
)

// DepsCache memoizes the compiled snapshot and dependency index of the
// current graph across estimator and evaluator constructions, keyed by
// graph pointer. A graph installed in a session is read-only: a reload
// or a transform installs a new graph rather than editing the old one, so
// a pointer always names the same content and the key cannot go stale.
// An empty-delta reload keeps the graph pointer, and the next search
// reuses the compiled state instead of paying NewDeps again; any new
// graph misses and replaces the entry. One entry suffices — a session has
// one current graph — and errors are cached too, so a recursive design
// does not recompile on every search just to fail again. Searches over
// two graphs at once (one still running on the graph a reload replaced)
// take turns at the entry and may compile again; each still gets its own
// graph's index.
//
// The zero value is ready to use. Safe for concurrent use.
type DepsCache struct {
	mu   sync.Mutex
	g    *core.Graph
	deps *Deps
	err  error
}

// For returns the dependency index compiled from g, building it on the
// first call for this graph pointer and serving the memoized result on
// subsequent calls.
func (c *DepsCache) For(g *core.Graph) (*Deps, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == g {
		return c.deps, c.err
	}
	deps, err := NewDeps(g)
	c.g, c.deps, c.err = g, deps, err
	return deps, err
}

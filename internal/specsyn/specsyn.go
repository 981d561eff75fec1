// Package specsyn is the environment façade tying the pipeline together,
// mirroring how the paper's SpecSyn tool is used: read a VHDL specification
// (plus profile, component library and designer overrides), build the
// annotated SLIF once, then interactively estimate, partition and transform
// — each step fast because everything is precomputed in the graph.
package specsyn

import (
	"fmt"
	"os"
	"time"

	"specsyn/internal/alloc"
	"specsyn/internal/builder"
	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/profile"
	"specsyn/internal/sem"
)

// Env is one design session. A graph installed in Graph is read-only:
// Reload and the transforms (xform, the shell's inline and merge) install
// a new graph rather than edit it, so searches already reading the old
// one stay consistent and the compiled state keyed by its pointer stays
// valid.
type Env struct {
	Source    string // VHDL text
	Design    *sem.Design
	Graph     *core.Graph
	Lib       *alloc.Library
	Prof      *profile.Profile
	Overrides *builder.Overrides

	// BuildTime is the wall-clock cost of the last Build or Reload — the
	// paper's "T-slif" quantity (incremental for reloads).
	BuildTime time.Duration

	// depsCache keeps the compiled snapshot and dependency index alive
	// across searches for the current graph; a Reload that finds no
	// semantic change keeps the graph pointer and therefore the compiled
	// state too, and a new graph misses. A pointer so shallow Env copies
	// share one cache (and stay vet-clean); nil (a zero-literal Env) just
	// disables the reuse.
	depsCache *estimate.DepsCache

	// fe is the front end of Source as the last Build or Reload made it,
	// the base the next Reload diffs against. It counts only while its
	// source equals Source: a caller that sets Source and Graph directly
	// (a restored checkpoint) leaves it stale, and the next Reload parses
	// Source once instead.
	fe *builder.FrontEnd
}

// New returns an empty session with the standard library and profile.
func New() *Env {
	return &Env{Lib: alloc.Std(), Prof: profile.Empty(), depsCache: &estimate.DepsCache{}}
}

// LoadVHDL sets the specification source.
func (e *Env) LoadVHDL(src string) { e.Source = src }

// LoadVHDLFile reads the specification from disk.
func (e *Env) LoadVHDLFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	e.Source = string(data)
	return nil
}

// LoadProfileFile reads a branch-probability file.
func (e *Env) LoadProfileFile(path string) error {
	p, err := profile.Load(path)
	if err != nil {
		return err
	}
	e.Prof = p
	return nil
}

// LoadLibraryFile reads a component library / allocation file.
func (e *Env) LoadLibraryFile(path string) error {
	l, err := alloc.Load(path)
	if err != nil {
		return err
	}
	e.Lib = l
	return nil
}

// LoadOverridesFile reads a designer weight-override file.
func (e *Env) LoadOverridesFile(path string) error {
	o, err := builder.LoadOverrides(path)
	if err != nil {
		return err
	}
	e.Overrides = o
	return nil
}

// Build parses, elaborates and constructs the annotated SLIF graph, then
// installs the library's allocation. It records BuildTime.
func (e *Env) Build() error {
	if e.Source == "" {
		return fmt.Errorf("specsyn: no VHDL source loaded")
	}
	start := time.Now()
	_, d, err := builder.Frontend(e.Source)
	if err != nil {
		return fmt.Errorf("specsyn: %w", err)
	}
	g, err := builder.Build(d, builder.Options{
		Profile:   e.Prof,
		Techs:     e.Lib.Techs,
		Overrides: e.Overrides,
	})
	if err != nil {
		return err
	}
	if err := e.Lib.Apply(g); err != nil {
		return err
	}
	e.Design, e.Graph = d, g
	e.fe = builder.FromDesign(e.Source, d)
	e.BuildTime = time.Since(start)
	return nil
}

// Reload swaps in an edited specification source, rebuilding the SLIF
// graph incrementally against the current one (builder.RebuildFrom): a
// semantically empty edit keeps the graph and the design — and every
// compiled estimator structure — untouched; a localized edit builds a new
// graph that shares every untouched node and channel with the current one,
// and re-applies the allocation; anything else falls back to a full build,
// with the reason in the Delta. Only the new source goes through the front
// end: the session keeps the front end of its current source from the
// last Build or Reload, and parses Source again only when Source was set
// without either. A transformed graph (xform, the shell's inline or
// merge) is no build of any source, so the next semantic edit rebuilds it
// fully and the transform is dropped. The current graph is never
// mutated, so searches already running on it stay consistent. On error
// the session keeps its previous source, design, graph and front end.
func (e *Env) Reload(src string) (builder.Delta, error) {
	if e.Graph == nil || e.Source == "" {
		prevSrc := e.Source
		e.Source = src
		if err := e.Build(); err != nil {
			e.Source = prevSrc
			return builder.Delta{}, err
		}
		return builder.Delta{Full: true, Reason: "no previous build"}, nil
	}
	start := time.Now()
	prev := e.fe
	if prev == nil || prev.Source() != e.Source {
		// A source that no longer parses leaves prev nil: a full rebuild.
		prev, _ = builder.NewFrontEnd(e.Source)
	}
	g, fe, delta, err := builder.RebuildFrom(e.Graph, prev, src, builder.Options{
		Profile:   e.Prof,
		Techs:     e.Lib.Techs,
		Overrides: e.Overrides,
	})
	if err != nil {
		return builder.Delta{}, err
	}
	// A comment or formatting edit keeps the graph pointer, and with it
	// the design and every compiled estimator structure.
	if !delta.Empty() {
		if err := e.Lib.Apply(g); err != nil {
			return delta, err
		}
		e.Design, e.Graph = fe.Design(), g
	}
	e.Source, e.fe = src, fe
	e.BuildTime = time.Since(start)
	return delta, nil
}

// ReloadFile reads an edited specification from disk and Reloads it.
func (e *Env) ReloadFile(path string) (builder.Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return builder.Delta{}, err
	}
	return e.Reload(string(data))
}

// DefaultPartition maps everything onto the first processor and the first
// bus — the all-software starting point.
func (e *Env) DefaultPartition() (*core.Partition, error) {
	if e.Graph == nil {
		return nil, fmt.Errorf("specsyn: Build first")
	}
	if len(e.Graph.Procs) == 0 || len(e.Graph.Buses) == 0 {
		return nil, fmt.Errorf("specsyn: allocation has no processor or no bus")
	}
	return core.AllToProcessor(e.Graph, e.Graph.Procs[0], e.Graph.Buses[0]), nil
}

// Estimate computes the full §3 metric report for a partition and returns
// it with the wall-clock estimation time — the paper's "T-est" quantity.
func (e *Env) Estimate(pt *core.Partition, opt estimate.Options) (*estimate.Report, time.Duration, error) {
	start := time.Now()
	rep, err := estimate.New(e.Graph, pt, opt).Report()
	return rep, time.Since(start), err
}

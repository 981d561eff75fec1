// Package builder constructs the annotated SLIF access graph of §2 from an
// elaborated design. It is the preprocessing step the paper's speed claims
// rest on: every annotation estimation needs — internal computation times
// and sizes per component type, access frequencies, transferred bits,
// concurrency tags — is computed here, once, so that estimating a candidate
// partition later is a matter of table lookups and sums.
//
// The construction runs as an explicit pass pipeline over the elaborated
// design, each pass owning one annotation family and running after every
// pass whose outputs it reads:
//
//  1. extract      — behavior/variable nodes and entity ports (BV, IO)
//  2. frequencies  — channels with profile-weighted accfreq/accmin/accmax
//  3. channelwires — per-access bit counts and concurrency tags (§2.3)
//  4. weights      — per-technology ict_list/size_list via internal/synth
//  5. overrides    — designer weight overrides (the -ov file)
//  6. validate     — Graph.Validate on the finished SLIF
//
// The pipeline is the only driver, and it runs over a fresh set: the
// elements whose structs it makes and annotates. Build's set is the whole
// design. A localized rebuild's set is the behaviors an edit reached
// (rebuild.go); every other port, node and channel block is the previous
// graph's struct, shared and never written. Either way the passes lay the
// graph out in design order — ports, behavior nodes, variable nodes, one
// channel block per behavior — and one Graph.Reindex indexes it at the
// end. A pass failure aborts the build with the pass named in the error.
package builder

import (
	"fmt"
	"strings"

	"specsyn/internal/core"
	"specsyn/internal/profile"
	"specsyn/internal/sched"
	"specsyn/internal/sem"
	"specsyn/internal/synth"
	"specsyn/internal/vhdl"
)

// Options configures a build.
type Options struct {
	// Profile supplies branch probabilities and dynamic loop counts for
	// the frequency and weight passes. Nil means profile.Empty(): uniform
	// branches, single-trip dynamic loops.
	Profile *profile.Profile

	// Techs lists the component technologies to precompute ict/size
	// weights for. Empty means synth.StdTechs().
	Techs []*synth.Tech

	// Overrides, when non-nil, replaces computed weights with
	// designer-specified values after the weight pass.
	Overrides *Overrides

	// SkipTags disables concurrency-tag derivation; every channel gets
	// core.NoTag. The naive re-analysis baseline builds with this set so
	// its per-query model and the preprocessed graph stay comparable.
	SkipTags bool
}

// state is the pipeline's working set, threaded through every pass.
type state struct {
	d     *sem.Design
	opts  Options
	prof  *profile.Profile
	techs []*synth.Tech

	// prev is the graph a rebuild shares every element outside the fresh
	// set with, and affected names the fresh set's behaviors. Both are nil
	// in Build, where every element is fresh.
	prev     *core.Graph
	affected map[string]bool

	g       *core.Graph                   // laid out by the passes, indexed at the end
	ends    map[string]core.Endpoint      // g's nodes and ports by name
	spans   []int                         // behavior i's channels are g.Channels[spans[i]:spans[i+1]]
	chanSym map[*core.Channel]*sem.Symbol // fresh channel → resolved destination
	sched   sched.Scheduler               // the tag pass's, reused per behavior
}

// pass is one stage of the build's pass pipeline.
type pass struct {
	name string
	run  func(*state) error
}

// pipeline lists the passes in execution order. Each pass owns the
// annotations its name suggests; see the package comment.
var pipeline = []pass{
	{name: "extract", run: passExtract},
	{name: "frequencies", run: passFrequencies},
	{name: "channelwires", run: passChannelWires},
	{name: "weights", run: passWeights},
	{name: "overrides", run: passOverrides},
	{name: "validate", run: passValidate},
}

// Build constructs the annotated SLIF graph of an elaborated design.
func Build(d *sem.Design, opts Options) (*core.Graph, error) {
	if d == nil {
		return nil, fmt.Errorf("builder: nil design")
	}
	return newBuildState(d, opts).run()
}

// run drives the pipeline over s's fresh set and indexes the graph.
func (s *state) run() (*core.Graph, error) {
	for _, p := range pipeline {
		if err := p.run(s); err != nil {
			return nil, fmt.Errorf("builder: pass %s: %w", p.name, err)
		}
	}
	s.g.Reindex()
	return s.g, nil
}

// fresh reports whether the node or port of the given name is in the
// fresh set: made and annotated by this run, not shared with prev.
func (s *state) fresh(name string) bool {
	return s.affected == nil || s.affected[name]
}

// newBuildState assembles the pipeline working set with defaults applied.
func newBuildState(d *sem.Design, opts Options) *state {
	s := &state{
		d:       d,
		opts:    opts,
		prof:    opts.Profile,
		techs:   opts.Techs,
		g:       &core.Graph{Name: d.Name},
		chanSym: make(map[*core.Channel]*sem.Symbol),
	}
	if s.prof == nil {
		s.prof = profile.Empty()
	}
	if len(s.techs) == 0 {
		s.techs = synth.StdTechs()
	}
	return s
}

// BuildVHDL parses, elaborates and builds in one step.
func BuildVHDL(src string, opts Options) (*core.Graph, error) {
	_, d, err := parse(src)
	if err != nil {
		return nil, err
	}
	return Build(d, opts)
}

// passValidate is the final gate: the graph the pipeline hands out must
// satisfy every SLIF invariant. A violation is reported with the source
// position of the behavior or object whose node the invariant names, so
// the designer's editor can jump to the offending line.
func passValidate(s *state) error {
	err := s.g.Validate()
	if err == nil {
		return nil
	}
	// Graph.Validate names the faulty node or channel; locate the unit
	// whose UniqueID the message mentions and prefix its position. Longest
	// match wins, since one UniqueID may be a substring of another.
	msg := err.Error()
	var best string
	var pos vhdl.Pos
	for _, b := range s.d.Behaviors {
		if b.Pos.Line != 0 && len(b.UniqueID) > len(best) && strings.Contains(msg, b.UniqueID) {
			best, pos = b.UniqueID, b.Pos
		}
	}
	for _, o := range s.d.Objects {
		if o.Pos.Line != 0 && len(o.UniqueID) > len(best) && strings.Contains(msg, o.UniqueID) {
			best, pos = o.UniqueID, o.Pos
		}
	}
	if best == "" {
		return err
	}
	return fmt.Errorf("%s: %w", pos, err)
}

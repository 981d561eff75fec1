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
// Each pass is independently testable; a pass failure aborts the build
// with the pass named in the error. Every pass whose work is per-behavior
// exposes its loop body as a separate function (behaviorChannels,
// wireChannel, tagChannels, behaviorWeights, ...), which Rebuild invokes
// for just the edited slice of the design — see rebuild.go.
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

	g       *core.Graph
	chanSym map[*core.Channel]*sem.Symbol // channel → resolved destination
	sched   sched.Scheduler               // the tag pass's, reused per behavior

	// res holds the fresh nodes of a rebuild's affected behaviors, by
	// name. While they are re-extracted, g is the previous graph, whose
	// indexes still point at the nodes they replace; destinations resolve
	// through res first (see state.node). Nil in a full build.
	res map[string]*core.Node
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
	s := newBuildState(d, opts)
	for _, p := range pipeline {
		if err := p.run(s); err != nil {
			return nil, fmt.Errorf("builder: pass %s: %w", p.name, err)
		}
	}
	return s.g, nil
}

// newBuildState assembles the pipeline working set with defaults applied.
func newBuildState(d *sem.Design, opts Options) *state {
	s := &state{
		d:       d,
		opts:    opts,
		prof:    opts.Profile,
		techs:   opts.Techs,
		g:       core.NewGraph(d.Name),
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
	df, err := vhdl.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := sem.Elaborate(df)
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

package builder

import (
	"specsyn/internal/core"
	"specsyn/internal/sem"
	"specsyn/internal/synth"
)

// passWeights precomputes the §2.4 ict_list and size_list of every node on
// every candidate technology — the step the paper performs by compiling or
// synthesizing each behavior per component type before system design
// begins. Behaviors get operation-count-derived weights on processors and
// custom hardware (memories cannot host behaviors); variables get storage
// access/footprint weights on every technology class. Only fresh nodes
// are annotated; prev's carry their weights over.
func passWeights(s *state) error {
	for _, t := range s.techs {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for i, b := range s.d.Behaviors {
		if n := s.g.Nodes[i]; s.fresh(n.Name) {
			s.behaviorWeights(b, n)
		}
	}
	for i, o := range s.d.Objects {
		if n := s.g.Nodes[len(s.d.Behaviors)+i]; s.fresh(n.Name) {
			s.variableWeights(o, n)
		}
	}
	return nil
}

// behaviorWeights is the weight pass's per-behavior body: operation counts
// via internal/synth, then per-technology ict/size annotations.
func (s *state) behaviorWeights(b *sem.Behavior, n *core.Node) {
	ops := synth.CountOps(s.d, b, s.prof)
	for _, t := range s.techs {
		if ict, size, ok := t.BehaviorWeights(ops); ok {
			n.SetICT(t.Name, ict)
			n.SetSize(t.Name, size)
		}
	}
}

// variableWeights is the weight pass's per-object body.
func (s *state) variableWeights(o *sem.Object, n *core.Node) {
	for _, t := range s.techs {
		if ict, size, ok := t.VariableWeights(o.Type.TotalBits()); ok {
			n.SetICT(t.Name, ict)
			n.SetSize(t.Name, size)
		}
	}
}

// passOverrides applies designer weight overrides on top of the computed
// annotations; a designer-specified value always wins (§2.1: "the designer
// may simply specify an ict" without the synthesis step).
func passOverrides(s *state) error {
	if s.opts.Overrides == nil {
		return nil
	}
	return s.opts.Overrides.apply(s)
}

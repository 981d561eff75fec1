package builder

import (
	"fmt"

	"specsyn/internal/core"
	"specsyn/internal/sem"
	"specsyn/internal/vhdl"
)

// passExtract populates the graph's BV and IO sets from the elaborated
// design: one behavior node per process/subprogram (in elaboration order,
// which interleaves architecture-level subprograms, processes and their
// nested subprograms deterministically), one variable node per declared
// object, and one port per entity port. Variables carry their storage
// footprint; ports carry their per-access bit count. The per-element
// builders (extractPort, extractBehavior, extractObject) are the pass's
// per-unit bodies, which Rebuild calls for just the affected subset.
func passExtract(s *state) error {
	for _, p := range s.d.Ports {
		np, err := extractPort(p)
		if err != nil {
			return err
		}
		if err := s.g.AddPort(np); err != nil {
			return err
		}
	}
	for _, b := range s.d.Behaviors {
		if err := s.g.AddNode(extractBehavior(b)); err != nil {
			return behErr(b, err)
		}
	}
	for _, o := range s.d.Objects {
		if err := s.g.AddNode(extractObject(o)); err != nil {
			return objErr(o, err)
		}
	}
	return nil
}

// extractPort builds the IO element for one entity port.
func extractPort(p *sem.Port) (*core.Port, error) {
	dir, err := portDir(p.Dir)
	if err != nil {
		return nil, err
	}
	return &core.Port{Name: p.Name, Dir: dir, Bits: p.Type.AccessBits()}, nil
}

// extractBehavior builds the (unannotated) behavior node for one behavior.
func extractBehavior(b *sem.Behavior) *core.Node {
	return &core.Node{Name: b.UniqueID, Kind: core.BehaviorNode, IsProcess: b.IsProcess}
}

// extractObject builds the variable node for one declared object.
func extractObject(o *sem.Object) *core.Node {
	return &core.Node{Name: o.UniqueID, Kind: core.VariableNode, StorageBits: o.Type.TotalBits()}
}

func portDir(d vhdl.PortDir) (core.PortDir, error) {
	switch d {
	case vhdl.DirIn:
		return core.In, nil
	case vhdl.DirOut:
		return core.Out, nil
	case vhdl.DirInOut:
		return core.InOut, nil
	}
	return core.In, fmt.Errorf("unknown port direction %v", d)
}

// behErr prefixes an error with the behavior's declaration position, so a
// build or rebuild failure points at the line the designer edited.
func behErr(b *sem.Behavior, err error) error {
	if err == nil || b.Pos.Line == 0 {
		return err
	}
	return fmt.Errorf("%s: in %s: %w", b.Pos, b.Name, err)
}

// objErr is behErr for object declarations.
func objErr(o *sem.Object, err error) error {
	if err == nil || o.Pos.Line == 0 {
		return err
	}
	return fmt.Errorf("%s: in declaration of %s: %w", o.Pos, o.Name, err)
}

// endpoint resolves an access target symbol to its graph endpoint. Nodes
// resolve through node, so a rebuild's fresh nodes win over the graph's.
func (s *state) endpoint(sym *sem.Symbol) (core.Endpoint, error) {
	switch sym.Kind {
	case sem.SymObject:
		if n := s.node(sym.Object.UniqueID); n != nil {
			return n, nil
		}
	case sem.SymPort:
		if p := s.g.PortByName(sym.Port.Name); p != nil {
			return p, nil
		}
	case sem.SymBehavior:
		if n := s.node(sym.Behavior.UniqueID); n != nil {
			return n, nil
		}
	}
	return nil, fmt.Errorf("access target %q has no graph endpoint", sym.Name)
}

// node looks a node up by name: in a rebuild's fresh nodes (state.res)
// first, then in the graph's index.
func (s *state) node(name string) *core.Node {
	if n := s.res[name]; n != nil {
		return n
	}
	return s.g.NodeByName(name)
}

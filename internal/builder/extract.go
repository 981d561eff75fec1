package builder

import (
	"fmt"

	"specsyn/internal/core"
	"specsyn/internal/sem"
	"specsyn/internal/vhdl"
)

// passExtract lays out the graph's BV and IO sets in design order: one
// port per entity port, one behavior node per process/subprogram (in
// elaboration order, which interleaves architecture-level subprograms,
// processes and their nested subprograms deterministically), then one
// variable node per declared object. Fresh elements are made here —
// variables carry their storage footprint, ports their per-access bit
// count; the rest are prev's, at the same positions. Every name is
// registered in s.ends, which refuses a name used twice with the position
// of the second declaration.
func passExtract(s *state) error {
	d, g, nb := s.d, s.g, len(s.d.Behaviors)
	s.ends = make(map[string]core.Endpoint, len(d.Ports)+nb+len(d.Objects))
	g.Ports = make([]*core.Port, len(d.Ports))
	g.Nodes = make([]*core.Node, nb+len(d.Objects))
	var err error
	for i, p := range d.Ports {
		if !s.fresh(p.Name) {
			g.Ports[i] = s.prev.Ports[i]
		} else if g.Ports[i], err = extractPort(p); err != nil {
			return err
		}
		if err := s.register(p.Name, g.Ports[i]); err != nil {
			return err
		}
	}
	// A rebuild's prev is in builder form: node i is the one named here.
	for i, b := range d.Behaviors {
		if !s.fresh(b.UniqueID) {
			g.Nodes[i] = s.prev.Nodes[i]
		} else {
			g.Nodes[i] = extractBehavior(b)
		}
		if err := s.register(b.UniqueID, g.Nodes[i]); err != nil {
			return behErr(b, err)
		}
	}
	for i, o := range d.Objects {
		j := nb + i
		if !s.fresh(o.UniqueID) {
			g.Nodes[j] = s.prev.Nodes[j]
		} else {
			g.Nodes[j] = extractObject(o)
		}
		if err := s.register(o.UniqueID, g.Nodes[j]); err != nil {
			return objErr(o, err)
		}
	}
	return nil
}

// register enters a node or port into s.ends. SLIF names nodes and ports
// from one namespace, so a second use of a name is refused.
func (s *state) register(name string, e core.Endpoint) error {
	if s.ends[name] != nil {
		if _, ok := e.(*core.Port); ok {
			return fmt.Errorf("slif: duplicate port name %q", name)
		}
		return fmt.Errorf("slif: duplicate node name %q", name)
	}
	s.ends[name] = e
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

// endpoint resolves an access target symbol to its graph endpoint.
func (s *state) endpoint(sym *sem.Symbol) (core.Endpoint, error) {
	var name string
	switch sym.Kind {
	case sem.SymObject:
		name = sym.Object.UniqueID
	case sem.SymPort:
		name = sym.Port.Name
	case sem.SymBehavior:
		name = sym.Behavior.UniqueID
	}
	if e := s.ends[name]; e != nil {
		return e, nil
	}
	return nil, fmt.Errorf("access target %q has no graph endpoint", sym.Name)
}

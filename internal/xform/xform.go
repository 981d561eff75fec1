// Package xform implements the specification transformations of §1/§3
// ("a transformation, such as procedure inlining or process merging, would
// require modification of certain nodes and edges, along with
// recomputation of certain annotations") directly on the SLIF graph.
//
// Two transformations are provided:
//
//   - Inline(caller, callee): the caller absorbs the callee's accesses,
//     scaled by how often the caller called it; the call channel
//     disappears; the callee node is removed once no caller remains.
//   - MergeProcesses(a, b): two process nodes become one sequential
//     process, their channels unioned (same-target frequencies summed) and
//     their weights summed — the paper's "merging processes into a single
//     process for implementation with a single controller".
//
// Both preserve the invariant the tests check: the total dynamic traffic
// (Σ accfreq×bits reaching variable and port endpoints) is unchanged, so
// bitrate and communication estimates stay consistent.
//
// Every entry point takes node names, edits one g.Clone(true) and returns
// it; the input graph is never written, and on error no graph is
// returned. A graph installed in a session can therefore be transformed
// while searches still read it.
package xform

import (
	"fmt"

	"specsyn/internal/core"
)

// Inline folds one call edge caller→callee into the caller. Annotation
// recomputation:
//
//   - For every callee channel callee→x with frequency f, the caller gains
//     callFreq×f accesses to x (min/max scale by the call's min/max).
//   - The caller's ict on every component type grows by callFreq×ict_callee
//     (the work is now internal rather than behind a call).
//   - The caller's size grows by one copy of the callee's size (one inlined
//     body per call site pair that SLIF merged into this edge; SLIF cannot
//     distinguish call sites, so one copy is the documented model).
//   - Inlined accesses are strictly sequential (NoTag): the callee's
//     schedule does not survive inlining.
//
// If no other behavior calls the callee afterwards, the callee node and its
// remaining channels are removed. Recursive edges (caller == callee) are
// rejected.
func Inline(g *core.Graph, caller, callee string) (*core.Graph, error) {
	ng := g.Clone(true)
	if err := inline(ng, caller, callee); err != nil {
		return nil, err
	}
	return ng, nil
}

// inline is Inline on g itself.
func inline(g *core.Graph, callerName, calleeName string) error {
	ns, err := nodes(g, callerName, calleeName)
	if err != nil {
		return err
	}
	caller, callee := ns[0], ns[1]
	if caller == callee {
		return fmt.Errorf("xform: cannot inline recursive call %q", caller.Name)
	}
	if !caller.IsBehavior() || !callee.IsBehavior() {
		return fmt.Errorf("xform: inline endpoints must be behaviors")
	}
	if callee.IsProcess {
		return fmt.Errorf("xform: cannot inline process %q; merge processes instead", callee.Name)
	}
	call := g.FindChannel(caller.Name, callee.Name)
	if call == nil {
		return fmt.Errorf("xform: no channel %s->%s", caller.Name, callee.Name)
	}
	callFreq, callMin, callMax := call.AccFreq, call.AccMin, call.AccMax
	g.RemoveChannel(call)

	// Absorb the callee's accesses, scaled by the call frequency.
	for _, cc := range g.BehChans(callee) {
		if existing := g.FindChannel(caller.Name, cc.Dst.EndpointName()); existing != nil {
			existing.AccFreq += callFreq * cc.AccFreq
			existing.AccMin += callMin * cc.AccMin
			existing.AccMax += callMax * cc.AccMax
			existing.Tag = core.NoTag
			continue
		}
		nc := &core.Channel{
			Src: caller, Dst: cc.Dst,
			AccFreq: callFreq * cc.AccFreq,
			AccMin:  callMin * cc.AccMin,
			AccMax:  callMax * cc.AccMax,
			Bits:    cc.Bits,
			Tag:     core.NoTag,
		}
		if err := g.AddChannel(nc); err != nil {
			return err
		}
	}

	// Weight recomputation.
	for t, v := range callee.ICT {
		caller.ICT[t] += callFreq * v
	}
	for t, v := range callee.Size {
		caller.Size[t] += v
	}

	// Remove the callee if orphaned.
	if len(g.InChans(callee.Name)) == 0 {
		g.RemoveNode(callee)
	}
	return nil
}

// InlineAll inlines every non-process behavior that has exactly one caller
// (the classic profitable case), repeating until no such behavior remains.
// It returns the transformed graph and the names of the behaviors
// inlined, in order.
func InlineAll(g *core.Graph) (*core.Graph, []string, error) {
	g = g.Clone(true)
	var inlined []string
	for changed := true; changed; {
		changed = false
		for _, n := range g.Behaviors() {
			if n.IsProcess {
				continue
			}
			callers := g.InChans(n.Name)
			if len(callers) != 1 {
				continue
			}
			caller := callers[0].Src
			if caller == n {
				continue // recursion
			}
			if err := inline(g, caller.Name, n.Name); err != nil {
				return nil, nil, err
			}
			inlined = append(inlined, n.Name)
			changed = true
			break // indices changed; restart the scan
		}
	}
	return g, inlined, nil
}

// MergeProcesses replaces process nodes a and b with a single process named
// name. The merged process executes both bodies sequentially, so:
//
//   - channels union, same-target frequencies (and min/max) sum;
//   - ict weights sum per component type (sequential execution);
//   - size weights sum (both controllers' logic/code is retained);
//   - cross-accesses between a and b (process-to-process channels) become
//     internal and disappear, exactly as when two processes share one
//     controller.
//
// Channels from other behaviors *to* a or b are redirected to the merged
// node (frequencies summing when both were accessed).
//
// An empty name means a_b. The name may be a's or b's own, but no other
// node's and no port's. MergeProcesses returns the transformed graph and
// the merged process's name.
func MergeProcesses(g *core.Graph, a, b, name string) (*core.Graph, string, error) {
	if name == "" {
		name = a + "_" + b
	}
	ng := g.Clone(true)
	if err := mergeProcesses(ng, a, b, name); err != nil {
		return nil, "", err
	}
	return ng, name, nil
}

// mergeProcesses is MergeProcesses on g itself. It refuses before its
// first edit.
func mergeProcesses(g *core.Graph, aName, bName, name string) error {
	ns, err := nodes(g, aName, bName)
	if err != nil {
		return err
	}
	a, b := ns[0], ns[1]
	if !a.IsProcess || !b.IsProcess {
		return fmt.Errorf("xform: merge requires two process nodes")
	}
	if a == b {
		return fmt.Errorf("xform: cannot merge %q with itself", a.Name)
	}
	if n := g.NodeByName(name); (n != nil && n != a && n != b) || g.PortByName(name) != nil {
		return fmt.Errorf("xform: name %q already exists", name)
	}

	merged := &core.Node{Name: name, Kind: core.BehaviorNode, IsProcess: true}
	merged.ICT = map[string]float64{}
	merged.Size = map[string]float64{}
	for _, src := range []*core.Node{a, b} {
		for t, v := range src.ICT {
			merged.ICT[t] += v
		}
		for t, v := range src.Size {
			merged.Size[t] += v
		}
	}

	// Collect outgoing and incoming before mutation.
	type flow struct {
		freq, min, max float64
		bits           int
	}
	outgoing := map[string]*flow{} // dst name → merged flow
	var outOrder []string
	for _, src := range []*core.Node{a, b} {
		for _, c := range g.BehChans(src) {
			dst := c.Dst.EndpointName()
			if dst == a.Name || dst == b.Name {
				continue // becomes internal
			}
			f := outgoing[dst]
			if f == nil {
				f = &flow{bits: c.Bits}
				outgoing[dst] = f
				outOrder = append(outOrder, dst)
			}
			f.freq += c.AccFreq
			f.min += c.AccMin
			f.max += c.AccMax
		}
	}
	incoming := map[*core.Node]*flow{}
	var inOrder []*core.Node
	for _, dst := range []*core.Node{a, b} {
		for _, c := range g.InChans(dst.Name) {
			if c.Src == a || c.Src == b {
				continue
			}
			f := incoming[c.Src]
			if f == nil {
				f = &flow{bits: c.Bits}
				incoming[c.Src] = f
				inOrder = append(inOrder, c.Src)
			}
			f.freq += c.AccFreq
			f.min += c.AccMin
			f.max += c.AccMax
		}
	}

	g.RemoveNode(a)
	g.RemoveNode(b)
	if err := g.AddNode(merged); err != nil {
		return err
	}
	for _, dstName := range outOrder {
		f := outgoing[dstName]
		var dst core.Endpoint
		if n := g.NodeByName(dstName); n != nil {
			dst = n
		} else if p := g.PortByName(dstName); p != nil {
			dst = p
		} else {
			return fmt.Errorf("xform: merged channel destination %q vanished", dstName)
		}
		if err := g.AddChannel(&core.Channel{
			Src: merged, Dst: dst,
			AccFreq: f.freq, AccMin: f.min, AccMax: f.max,
			Bits: f.bits, Tag: core.NoTag,
		}); err != nil {
			return err
		}
	}
	for _, src := range inOrder {
		f := incoming[src]
		if err := g.AddChannel(&core.Channel{
			Src: src, Dst: merged,
			AccFreq: f.freq, AccMin: f.min, AccMax: f.max,
			Bits: f.bits, Tag: core.NoTag,
		}); err != nil {
			return err
		}
	}
	return nil
}

// nodes looks up g's nodes by name.
func nodes(g *core.Graph, names ...string) ([]*core.Node, error) {
	ns := make([]*core.Node, len(names))
	for i, name := range names {
		if ns[i] = g.NodeByName(name); ns[i] == nil {
			return nil, fmt.Errorf("xform: unknown node %q", name)
		}
	}
	return ns, nil
}

// Traffic returns the total dynamic data traffic per system iteration: for
// every process, the accfreq×bits reaching variable and port endpoints,
// with accesses made through subprogram calls weighted by the product of
// call frequencies along the call path. This is the quantity Inline and
// MergeProcesses preserve — inlining moves accesses from callee to caller
// but multiplies their frequency by exactly the factor the call chain
// contributed, and merging sums the processes' flows.
//
// Recursive call cycles contribute the acyclic part of their traffic.
func Traffic(g *core.Graph) float64 {
	memo := map[*core.Node]float64{}
	onPath := map[*core.Node]bool{}
	var eff func(b *core.Node) float64
	eff = func(b *core.Node) float64 {
		if v, ok := memo[b]; ok {
			return v
		}
		if onPath[b] {
			return 0
		}
		onPath[b] = true
		defer delete(onPath, b)
		var total float64
		for _, c := range g.BehChans(b) {
			if n, ok := c.Dst.(*core.Node); ok && n.IsBehavior() {
				total += c.AccFreq * eff(n)
				continue
			}
			total += c.AccFreq * float64(c.Bits)
		}
		memo[b] = total
		return total
	}
	var sum float64
	for _, p := range g.Processes() {
		sum += eff(p)
	}
	return sum
}

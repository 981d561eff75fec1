// This file implements the incremental execution-time engine behind
// partition's delta evaluator: a static reverse dependency index over the
// access graph (Deps, built on the compiled core.Snapshot) plus a dense
// array of per-node Exectime values (Incr) that a caller updates for just
// the nodes a move affects, instead of re-walking the whole graph. It is
// the update-not-reanalyze discipline of §4 applied to the partitioning
// inner loop, and since the snapshot refactor the recompute itself is pure
// array arithmetic: no partition maps, no annotation-map hashing.

package estimate

import (
	"fmt"
	"math"
	"sort"

	"specsyn/internal/core"
)

// Deps is the static dependency structure of a graph's access relation: a
// callee-first topological order plus, per node, the topologically sorted
// set of nodes whose Exectime transitively depends on it (the node itself
// included). It is partition-independent — build it once per graph and
// reuse it across searches; it also owns the graph's compiled Snapshot,
// which every consumer (Incr, partition.DeltaEval, parallel workers)
// shares read-only.
//
// A recursive (cyclic) access graph is indexed too: every node that
// reaches a cycle is marked Cyclic and left out of Order. Its Exectime is
// undefined — the full estimator fails on it with an "access graph cycle"
// error — so Incr never computes it, and a caller reports the cycle only
// if something reads that Exectime, as the full estimator does.
type Deps struct {
	g        *core.Graph
	snap     *core.Snapshot
	idx      map[*core.Node]int32
	pos      []int32   // topological position per node index
	order    []int32   // acyclic node indices, callees before callers
	cyclic   []bool    // node reaches an access-graph cycle
	affected [][]int32 // node index → topo-sorted dependents incl. self
}

// NewDeps compiles g and indexes its access relation. The graph must not
// gain or lose nodes or channels while the index is in use.
func NewDeps(g *core.Graph) (*Deps, error) {
	snap, err := core.Compile(g)
	if err != nil {
		return nil, err
	}
	n := snap.NumNodes()
	d := &Deps{
		g:    g,
		snap: snap,
		idx:  make(map[*core.Node]int32, n),
		pos:  make([]int32, n),
	}
	for i, nd := range g.Nodes {
		d.idx[nd] = int32(i)
	}
	// dependents[v] lists the nodes whose Commtime reads Exectime(v);
	// ndeps[u] counts u's outstanding callees. Channel keys are unique per
	// (src, dst), so no edge is recorded twice.
	dependents := make([][]int32, n)
	ndeps := make([]int32, n)
	for ci := 0; ci < snap.NumChans(); ci++ {
		v := snap.ChanDst[ci]
		if v < 0 {
			continue // port access: transfer time only, no Exectime dependency
		}
		u := snap.ChanSrc[ci]
		ndeps[u]++
		dependents[v] = append(dependents[v], u)
	}
	// Kahn's algorithm, callees first. The FIFO queue seeded in node order
	// keeps the order deterministic.
	queue := make([]int32, 0, n)
	for i := range ndeps {
		if ndeps[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	d.order = make([]int32, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d.pos[v] = int32(len(d.order))
		d.order = append(d.order, v)
		for _, u := range dependents[v] {
			if ndeps[u]--; ndeps[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	// Kahn's algorithm never releases a node that reaches a cycle: mark
	// those and place them after the acyclic part, so every Affected list
	// still sorts callee-first on the nodes Incr computes.
	d.cyclic = make([]bool, n)
	next := int32(len(d.order))
	for i := range ndeps {
		if ndeps[i] > 0 {
			d.cyclic[i] = true
			d.pos[i] = next
			next++
		}
	}
	// Per-node transitive closure of dependents, sorted topologically so
	// that recomputing a closure in slice order never reads a stale callee.
	d.affected = make([][]int32, n)
	seen := make([]bool, n)
	stack := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		aff := make([]int32, 0, 1+len(dependents[i]))
		stack = append(stack[:0], int32(i))
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			aff = append(aff, v)
			for _, u := range dependents[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Slice(aff, func(a, b int) bool { return d.pos[aff[a]] < d.pos[aff[b]] })
		d.affected[i] = aff
		for _, v := range aff {
			seen[v] = false
		}
	}
	return d, nil
}

// Graph returns the graph the index is over.
func (d *Deps) Graph() *core.Graph { return d.g }

// Snapshot returns the graph's compiled snapshot. It is immutable and safe
// to share across goroutines.
func (d *Deps) Snapshot() *core.Snapshot { return d.snap }

// Len returns the node count.
func (d *Deps) Len() int { return len(d.pos) }

// Index returns the dense node index of n.
func (d *Deps) Index(n *core.Node) (int32, bool) {
	i, ok := d.idx[n]
	return i, ok
}

// Node returns the node at dense index i.
func (d *Deps) Node(i int32) *core.Node { return d.g.Nodes[i] }

// Order returns every acyclic node index callee-first; recomputing
// Exectime in this order never reads a stale callee.
func (d *Deps) Order() []int32 { return d.order }

// Cyclic reports whether node i reaches an access-graph cycle, i.e. its
// Exectime is undefined.
func (d *Deps) Cyclic(i int32) bool { return d.cyclic[i] }

// Affected returns the indices of the nodes whose Exectime depends on node
// i, including i itself, topologically sorted callee-first. The slice is
// owned by the index; callers must not modify it.
func (d *Deps) Affected(i int32) []int32 { return d.affected[i] }

// Incr holds one Exectime value per node for a bound assignment and
// recomputes them incrementally: after a node move, refreshing just
// Deps.Affected(moved) restores every value — O(affected region), not
// O(graph). Each refreshed value is recomputed from scratch with the same
// per-channel summation the full estimator's Commtime performs, so
// incremental values accumulate no floating-point drift of their own.
//
// The engine reads the design through the compiled Snapshot and the
// partition through a core.Assignment vector — the recompute loop is pure
// index arithmetic over flat arrays. An Incr is bound to one assignment at
// a time via Bind and is not safe for concurrent use (the Deps/Snapshot it
// reads are shareable; the Incr's scratch is not).
type Incr struct {
	deps *Deps
	snap *core.Snapshot
	opt  Options
	asg  *core.Assignment

	nc   int       // snapshot component count
	et   []float64 // Exectime per node index
	freq []float64 // per channel: access count under opt.Mode

	// Concurrency-tag groups (Options.UseTags): group index per
	// out-channel (parallel to Snapshot.OutChan; -1 = sequential), group
	// count per node, and a shared running-max scratch sized for the
	// largest group count.
	grp  []int32
	ngrp []int32
	gmax []float64
}

// NewIncr returns an incremental engine over deps. Bind an assignment
// before reading values.
func NewIncr(deps *Deps, opt Options) *Incr {
	snap := deps.Snapshot()
	n := snap.NumNodes()
	in := &Incr{
		deps: deps,
		snap: snap,
		opt:  opt,
		nc:   snap.NumComps(),
		et:   make([]float64, n),
		freq: make([]float64, snap.NumChans()),
		grp:  make([]int32, len(snap.OutChan)),
		ngrp: make([]int32, n),
	}
	for ci := 0; ci < snap.NumChans(); ci++ {
		in.freq[ci] = chanFreq(snap, opt.Mode, int32(ci))
	}
	maxGroups := int32(0)
	var byTag map[int32]int32
	for i := 0; i < n; i++ {
		var groups int32
		for t := range byTag {
			delete(byTag, t)
		}
		for k := snap.OutStart[i]; k < snap.OutStart[i+1]; k++ {
			in.grp[k] = -1
			tag := snap.ChanTag[snap.OutChan[k]]
			if opt.UseTags && tag != core.NoTag {
				// Group indices in first-appearance order: deterministic,
				// unlike the full estimator's map-ordered group sum (the
				// two agree up to summation order).
				if byTag == nil {
					byTag = make(map[int32]int32)
				}
				gi, ok := byTag[tag]
				if !ok {
					gi = groups
					groups++
					byTag[tag] = gi
				}
				in.grp[k] = gi
			}
		}
		in.ngrp[i] = groups
		if groups > maxGroups {
			maxGroups = groups
		}
	}
	in.gmax = make([]float64, maxGroups)
	return in
}

// chanFreq mirrors Options.Freq on snapshot arrays: min/max annotations
// that were never set (are zero) fall back to the average, independently.
func chanFreq(s *core.Snapshot, mode Mode, ci int32) float64 {
	switch mode {
	case Min:
		if s.ChanMin[ci] != 0 {
			return s.ChanMin[ci]
		}
	case Max:
		if s.ChanMax[ci] != 0 {
			return s.ChanMax[ci]
		}
	}
	return s.ChanFreq[ci]
}

// Deps returns the dependency index the engine was built over.
func (in *Incr) Deps() *Deps { return in.deps }

// Bind points the engine at an assignment (over the same snapshot) and
// recomputes every node's Exectime callee-first — O(|BV| + |C|). After a
// Bind, RecomputeAffected keeps the values current move by move. The
// engine reads the assignment live: callers that mutate it must refresh
// the affected region before the next read.
func (in *Incr) Bind(a *core.Assignment) error {
	in.asg = a
	return in.RecomputeAffected(in.deps.order)
}

// RecomputeAffected refreshes Exectime for the given node indices, which
// must be sorted callee-first (Deps.Affected and Deps.Order both are).
// Cyclic nodes are skipped: their Exectime is undefined.
func (in *Incr) RecomputeAffected(order []int32) error {
	for _, i := range order {
		if in.deps.cyclic[i] {
			continue
		}
		if err := in.recompute(i); err != nil {
			return err
		}
	}
	return nil
}

// Et returns the current Exectime of the node with dense index i.
func (in *Incr) Et(i int32) float64 { return in.et[i] }

// Exectime returns the current Exectime of n; ok is false for a node
// outside the graph or a cyclic one.
func (in *Incr) Exectime(n *core.Node) (float64, bool) {
	i, ok := in.deps.Index(n)
	if !ok || in.deps.cyclic[i] {
		return 0, false
	}
	return in.et[i], true
}

// recompute evaluates eq. 1 for one node from its callees' current values,
// entirely from the snapshot arrays and the bound assignment vector.
func (in *Incr) recompute(i int32) error {
	s := in.snap
	ci := in.asg.NodeComp[i]
	if ci < 0 {
		return fmt.Errorf("estimate: node %q is not mapped to a component", s.NodeNames[i])
	}
	ict := s.ICT[int(i)*in.nc+int(ci)]
	if math.IsNaN(ict) { // no annotation for the component's type
		return fmt.Errorf("estimate: node %q has no ict weight for component type %q", s.NodeNames[i], s.TypeNames[s.CompType[ci]])
	}
	if s.NodeKind[i] != core.BehaviorNode {
		in.et[i] = ict
		return nil
	}
	ng := in.ngrp[i]
	for k := int32(0); k < ng; k++ {
		in.gmax[k] = 0
	}
	var total float64
	for k := s.OutStart[i]; k < s.OutStart[i+1]; k++ {
		ch := s.OutChan[k]
		// TransferTime (eq. 1): the same semantics as the full
		// estimator's transferTime — an unmapped bus is an error even for
		// zero-bit channels, a zero-bit access costs nothing, and a
		// non-positive width is an error, never a divide-by-zero.
		bi := in.asg.ChanBus[ch]
		if bi < 0 {
			return fmt.Errorf("estimate: channel %s is not mapped to a bus", s.ChanKey(ch))
		}
		var tt float64
		if bits := s.ChanBits[ch]; bits != 0 {
			w := s.BusWidth[bi]
			if w <= 0 {
				return fmt.Errorf("estimate: channel %s: bus %q has non-positive bitwidth %d", s.ChanKey(ch), s.BusNames[bi], w)
			}
			transfers := (bits + w - 1) / w
			di := s.ChanDst[ch]
			bdt := s.BusTD[bi]
			if di >= 0 && in.asg.NodeComp[di] == ci {
				bdt = s.BusTS[bi]
			}
			tt = bdt * float64(transfers)
		}
		var dstTime float64
		if di := s.ChanDst[ch]; di >= 0 {
			dstTime = in.et[di]
		}
		cost := in.freq[ch] * (tt + dstTime)
		if gi := in.grp[k]; gi >= 0 {
			if cost > in.gmax[gi] {
				in.gmax[gi] = cost
			}
		} else {
			total += cost
		}
	}
	for k := int32(0); k < ng; k++ {
		total += in.gmax[k]
	}
	in.et[i] = ict + total
	return nil
}

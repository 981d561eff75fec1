package partition

// The delta evaluator: incremental cost estimation for single-node moves.
//
// Evaluator.Cost re-walks every component, process, bus and channel per
// candidate — O(graph) — even when the candidate differs from the previous
// one by a single object move. DeltaEval instead materializes every sum
// the cost function reads (per-component size and IO, per-bus bitrate,
// the cut-traffic total, per-node Exectime) and updates only the entries
// a move touches: O(degree of the moved node), plus its dependent region
// when a cost term reads Exectimes. That makes a move trial "a matter of
// table lookups and sums" (§4) and is what lets the searches explore
// thousands of designs per second on graphs where a full re-estimate
// would dominate.
//
// Exectimes are kept only on demand. The cost function reads an Exectime
// in two places: a process deadline (under W.Time > 0) and the bitrate of
// a channel on a rate-limited bus (under W.Rate > 0). When neither is
// active — every unconstrained search — moves and whole candidates skip
// the Exectime and bitrate upkeep entirely, and the cost is the size, pin
// and cut-traffic sums alone.
//
// The evaluator's working state is a flat core.Assignment vector over the
// graph's compiled core.Snapshot: a trial move is int32 stores and array
// sums, with no partition-map or annotation-map access on the hot path at
// all. The bound Partition is the caller-visible mirror: trials never
// touch it, commits write through to it.
//
// Correctness discipline: the full recompute (Evaluator.Cost) stays the
// oracle. Integer sums (cut counts, IO widths) are maintained exactly;
// floating-point sums (sizes, bitrates, cut traffic) drift by one
// rounding error per inverse update, so they are re-derived from scratch —
// in the oracle's summation order — every deltaRefreshInterval moves and
// on every Cost call. Exectime values are recomputed from scratch per affected node
// (estimate.Incr), so they carry no incremental drift at all. On a
// recursive access graph the Exectime of a node that reaches a cycle is
// undefined; like the oracle, the evaluator fails only when a deadline or
// a rate-tracked channel reads one.

import (
	"fmt"
	"math"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
)

// deltaRefreshInterval is how many incremental updates the evaluator
// applies between full re-derivations of its floating-point sums. Each
// trial or commit perturbs a sum by add/subtract pairs that do not cancel
// exactly in floating point; re-deriving every few dozen moves keeps the
// accumulated drift orders of magnitude below the 1e-9 the differential
// tests (and reasonable callers) care about, while amortizing the
// O(graph) refresh to a negligible per-move cost.
const deltaRefreshInterval = 64

// DeltaEval is the incremental counterpart of Evaluator.Cost for
// single-node moves. Obtain one with Evaluator.Delta; it is pooled on the
// evaluator and rebound per search, and like the evaluator it must not be
// shared between goroutines (the Snapshot and Deps it reads are shared;
// its scratch arrays are not).
//
// MoveCost, SwapCost and Cost fire the evaluator's fault-injection hook
// and count one evaluation each, exactly like Evaluator.Cost; Apply and
// ApplySwap are bookkeeping and count nothing.
//
// Invariant: while needEt is false the Exectimes in incr, and the
// per-channel bitrates, are stale — moves since the last Rebind have not
// refreshed them, and nothing reads them. Rebind always recomputes every
// Exectime, so a rebind that activates a deadline or rate term starts
// from fresh values.
type DeltaEval struct {
	ev             *Evaluator
	deps           *estimate.Deps
	snap           *core.Snapshot
	incr           *estimate.Incr
	pt             *core.Partition
	intBus, extBus int32   // the bus policy, resolved at Rebind
	w              Weights // captured at Rebind; see Evaluator's EstOpt contract
	needEt         bool    // some active cost term reads an Exectime (derived at Rebind)
	anyRate        bool    // some bus is rate-tracked (W.Rate > 0 and a bus limit)

	// Static tables, built once per evaluator. Object pointers are kept
	// only to translate between the caller's pointer world and the
	// snapshot's ID world at the API boundary.
	comps   []core.Component
	compIdx map[core.Component]int32
	buses   []*core.Bus
	busIdx  map[*core.Bus]int32
	chans   []*core.Channel
	chVol   []float64 // AccFreq × Bits (Comm-term traffic); 0 for port channels
	chRVol  []float64 // mode freq × Bits (bitrate volume)
	dlNode  []int32   // deadline-constrained processes, in Processes order
	dlLimit []float64
	rateBus []int32 // bitrate-constrained buses, in g.Buses order
	rateLim []float64

	// Dynamic state for the bound partition: the assignment vector is the
	// source of truth; everything below it is sums derived from it.
	asg     *core.Assignment
	chBr    []float64 // last-computed bitrate per channel (rate-tracked buses)
	chBad   []bool    // the oracle fails on this channel's bitrate (cyclic or zero-time source)
	hasRate []bool    // bus participates in the Rate term (constrained, W.Rate > 0)
	sizeSum []float64 // per component
	ioSum   []int32   // per component: Σ widths of buses with a cut channel
	cutCnt  []int32   // comp × bus: cut channels of comp on bus
	busRate []float64 // per bus
	badCnt  []int32   // per bus: channels with chBad set
	cut     float64   // Σ chVol over component-crossing channels

	sinceRefresh int
	broken       bool // a move failed midway; sums are unreliable
}

// Delta returns the evaluator's pooled incremental evaluator, bound to pt
// with its channel mapping derived by policy and written through to pt.
// It errors, stickily, on inputs it refuses outright: a bus with a
// non-positive width, or estimate.Options.IgnoreRecursion. It errors per
// call when pt is not a complete mapping the estimator can cost: an
// unmapped node, or a node without weights for its component type.
func (ev *Evaluator) Delta(pt *core.Partition, policy BusPolicy) (*DeltaEval, error) {
	if ev.deltaErr != nil {
		return nil, ev.deltaErr
	}
	if ev.delta == nil {
		d, err := newDeltaEval(ev)
		if err != nil {
			ev.deltaErr = err
			return nil, err
		}
		ev.delta = d
	}
	if err := ev.delta.Rebind(pt, policy); err != nil {
		return nil, err
	}
	return ev.delta, nil
}

// newDeltaEval builds the partition-independent tables. The dependency
// index and compiled snapshot come from the evaluator's Deps, so every
// clone in a parallel fleet reuses one copy.
func newDeltaEval(ev *Evaluator) (*DeltaEval, error) {
	deps, err := ev.Deps.For(ev.G)
	if err != nil {
		return nil, err
	}
	g := ev.G
	if ev.EstOpt.IgnoreRecursion {
		return nil, fmt.Errorf("partition: incremental evaluation does not support estimate.Options.IgnoreRecursion")
	}
	for _, b := range g.Buses {
		// The full estimator only trips over a degenerate bus when a
		// deadline forces an Exectime through it; incremental evaluation
		// computes every Exectime up front and would diverge, so refuse.
		if b.BitWidth <= 0 {
			return nil, fmt.Errorf("partition: bus %q has non-positive bitwidth %d", b.Name, b.BitWidth)
		}
	}
	snap := deps.Snapshot()
	nc, nb, nch := snap.NumComps(), snap.NumBuses(), snap.NumChans()
	d := &DeltaEval{
		ev:      ev,
		deps:    deps,
		snap:    snap,
		incr:    estimate.NewIncr(deps, ev.EstOpt),
		comps:   g.Components(),
		compIdx: make(map[core.Component]int32, nc),
		buses:   g.Buses,
		busIdx:  make(map[*core.Bus]int32, nb),
		chans:   g.Channels,
		chVol:   make([]float64, nch),
		chRVol:  make([]float64, nch),
		asg:     core.NewAssignment(snap),
		chBr:    make([]float64, nch),
		chBad:   make([]bool, nch),
		hasRate: make([]bool, nb),
		sizeSum: make([]float64, nc),
		ioSum:   make([]int32, nc),
		cutCnt:  make([]int32, nc*nb),
		busRate: make([]float64, nb),
		badCnt:  make([]int32, nb),
	}
	for i, c := range d.comps {
		d.compIdx[c] = int32(i)
	}
	for i, b := range g.Buses {
		d.busIdx[b] = int32(i)
	}
	for ci, c := range g.Channels {
		if snap.ChanDst[ci] >= 0 {
			d.chVol[ci] = c.AccFreq * float64(c.Bits)
		}
		d.chRVol[ci] = ev.EstOpt.Freq(c) * float64(c.Bits)
	}
	for _, p := range g.Processes() {
		limit, ok := ev.Cons.Deadline[p.Name]
		if !ok {
			continue
		}
		ni, _ := deps.Index(p)
		d.dlNode = append(d.dlNode, ni)
		d.dlLimit = append(d.dlLimit, limit)
	}
	for bi, b := range g.Buses {
		limit, ok := ev.Cons.MaxBusRate[b.Name]
		if !ok {
			continue
		}
		d.rateBus = append(d.rateBus, int32(bi))
		d.rateLim = append(d.rateLim, limit)
	}
	return d, nil
}

// Rebind points the evaluator at a partition and bus policy, applies the
// policy to every channel (writing the derivation through to pt), and
// re-derives every sum — O(graph), paid once per search, not per move.
// It recomputes every Exectime whether or not the cost terms read them,
// so it also refuses a mapping the estimator cannot cost.
func (d *DeltaEval) Rebind(pt *core.Partition, policy BusPolicy) error {
	var okInt, okExt bool
	d.intBus, okInt = d.busIdx[policy.Internal]
	d.extBus, okExt = d.busIdx[policy.External]
	if !okInt || !okExt {
		return fmt.Errorf("partition: bus policy has a nil bus or one outside the graph")
	}
	d.pt, d.broken = pt, false
	d.w = d.ev.W
	// The oracle reads an Exectime only for a deadline or a rate-limited
	// bus's bitrate; without either, moves skip the Exectime upkeep.
	d.anyRate = d.w.Rate > 0 && len(d.rateBus) > 0
	d.needEt = d.anyRate || d.w.Time > 0 && len(d.dlNode) > 0
	for i := range d.hasRate {
		d.hasRate[i] = false
	}
	if d.anyRate {
		for _, bi := range d.rateBus {
			d.hasRate[bi] = true
		}
	}
	for i, n := range d.ev.G.Nodes {
		c := pt.BvComp(n)
		if c == nil {
			return fmt.Errorf("partition: node %q is unmapped", n.Name)
		}
		ci, ok := d.compIdx[c]
		if !ok {
			return fmt.Errorf("partition: node %q is mapped to a component outside the graph", n.Name)
		}
		d.asg.NodeComp[i] = ci
	}
	for ci, c := range d.chans {
		bi := d.chanBus(int32(ci))
		d.asg.ChanBus[ci] = bi
		pt.AssignChan(c, d.buses[bi])
	}
	if err := d.incr.Bind(d.asg); err != nil {
		return err
	}
	return d.refresh()
}

// chanBus applies the bus policy to channel ci under the current
// assignment: the internal bus when both endpoints share a component.
func (d *DeltaEval) chanBus(ci int32) int32 {
	if di := d.snap.ChanDst[ci]; di >= 0 && d.asg.NodeComp[di] == d.asg.NodeComp[d.snap.ChanSrc[ci]] {
		return d.intBus
	}
	return d.extBus
}

// refresh re-derives every floating-point sum from scratch, in the same
// summation order the full recompute uses, resetting accumulated drift.
// The integer sums (cutCnt, ioSum, badCnt) are re-derived too, though
// incremental maintenance keeps those exact anyway. It also fails on a
// node without an ict weight on its component, the error the Exectime
// recompute reports when it runs.
func (d *DeltaEval) refresh() error {
	for i := range d.sizeSum {
		d.sizeSum[i] = 0
		d.ioSum[i] = 0
	}
	for i := range d.cutCnt {
		d.cutCnt[i] = 0
	}
	for i := range d.busRate {
		d.busRate[i] = 0
		d.badCnt[i] = 0
	}
	d.cut = 0
	s := d.snap
	nc := s.NumComps()
	for i, ci := range d.asg.NodeComp {
		w := s.Size[i*nc+int(ci)]
		if math.IsNaN(w) {
			return fmt.Errorf("estimate: node %q has no size weight for component type %q", s.NodeNames[i], s.TypeNames[s.CompType[ci]])
		}
		if math.IsNaN(s.ICT[i*nc+int(ci)]) && !d.deps.Cyclic(int32(i)) {
			return fmt.Errorf("estimate: node %q has no ict weight for component type %q", s.NodeNames[i], s.TypeNames[s.CompType[ci]])
		}
		d.sizeSum[ci] += w
	}
	for ci := 0; ci < s.NumChans(); ci++ {
		src := d.asg.NodeComp[s.ChanSrc[ci]]
		bi := d.asg.ChanBus[ci]
		if di := s.ChanDst[ci]; di < 0 {
			d.incCut(src, bi)
		} else if dc := d.asg.NodeComp[di]; dc != src {
			d.incCut(src, bi)
			d.incCut(dc, bi)
			d.cut += d.chVol[ci]
		}
		d.chBr[ci], d.chBad[ci] = 0, false
		if d.hasRate[bi] {
			br, bad := d.bitrate(ci)
			d.chBr[ci], d.chBad[ci] = br, bad
			if bad {
				d.badCnt[bi]++
			} else {
				d.busRate[bi] += br
			}
		}
	}
	d.sinceRefresh = 0
	return nil
}

func (d *DeltaEval) refreshIfDue() error {
	if d.sinceRefresh < deltaRefreshInterval {
		return nil
	}
	if err := d.refresh(); err != nil {
		d.broken = true
		return err
	}
	return nil
}

// bitrate evaluates eq. 2 for one channel from the current Exectime of
// its source. bad reports what the full estimator treats as an error: a
// cyclic source (its Exectime is read even for zero traffic), or non-zero
// traffic from a zero-Exectime source.
func (d *DeltaEval) bitrate(ci int) (br float64, bad bool) {
	src := d.snap.ChanSrc[ci]
	if d.deps.Cyclic(src) {
		return 0, true
	}
	vol := d.chRVol[ci]
	if vol == 0 {
		return 0, false
	}
	et := d.incr.Et(src)
	if et == 0 {
		return 0, true
	}
	return vol / et, false
}

// rateErr is the full estimator's error for a bus whose bitrate is
// undefined (badCnt > 0).
func (d *DeltaEval) rateErr(bi int32) error {
	s := d.snap
	for ci, bad := range d.chBad {
		if !bad || d.asg.ChanBus[ci] != bi {
			continue
		}
		if src := s.ChanSrc[ci]; d.deps.Cyclic(src) {
			return cycleErr(s.NodeNames[src])
		}
		return fmt.Errorf("estimate: channel %s source %q has zero execution time but non-zero traffic", s.ChanKey(int32(ci)), s.NodeNames[s.ChanSrc[ci]])
	}
	return fmt.Errorf("estimate: bus %q has an undefined bitrate", s.BusNames[bi])
}

func cycleErr(node string) error {
	return fmt.Errorf("estimate: access graph cycle (recursion) reachable from %q", node)
}

// incCut records one more cut channel of component comp on bus; the first
// one adds the bus to the component's IO (eq. 6).
func (d *DeltaEval) incCut(comp, bus int32) {
	k := int(comp)*len(d.buses) + int(bus)
	if d.cutCnt[k] == 0 {
		d.ioSum[comp] += d.snap.BusWidth[bus]
	}
	d.cutCnt[k]++
}

func (d *DeltaEval) decCut(comp, bus int32) {
	k := int(comp)*len(d.buses) + int(bus)
	d.cutCnt[k]--
	if d.cutCnt[k] == 0 {
		d.ioSum[comp] -= d.snap.BusWidth[bus]
	}
}

// detachCut removes channel ci's contribution to the cut counts, IO sums
// and cut traffic, under the current assignment.
func (d *DeltaEval) detachCut(ci int32) {
	bi := d.asg.ChanBus[ci]
	src := d.asg.NodeComp[d.snap.ChanSrc[ci]]
	if di := d.snap.ChanDst[ci]; di < 0 {
		d.decCut(src, bi)
	} else if dc := d.asg.NodeComp[di]; dc != src {
		d.decCut(src, bi)
		d.decCut(dc, bi)
		d.cut -= d.chVol[ci]
	}
}

func (d *DeltaEval) attachCut(ci int32) {
	bi := d.asg.ChanBus[ci]
	src := d.asg.NodeComp[d.snap.ChanSrc[ci]]
	if di := d.snap.ChanDst[ci]; di < 0 {
		d.incCut(src, bi)
	} else if dc := d.asg.NodeComp[di]; dc != src {
		d.incCut(src, bi)
		d.incCut(dc, bi)
		d.cut += d.chVol[ci]
	}
}

// move transitions the assignment vector and every sum from "ni on its
// current component" to "ni on toIdx". Validation that can fail happens
// before any sum is touched; a failure after mutation begins marks the
// evaluator broken. The bound Partition is untouched — commits make it
// current via syncNode.
func (d *DeltaEval) move(ni, toIdx int32) error {
	fromIdx := d.asg.NodeComp[ni]
	if toIdx == fromIdx {
		return nil
	}
	s := d.snap
	nc := s.NumComps()
	wTo := s.Size[int(ni)*nc+int(toIdx)]
	if math.IsNaN(wTo) {
		return fmt.Errorf("estimate: node %q has no size weight for component type %q", s.NodeNames[ni], s.TypeNames[s.CompType[toIdx]])
	}
	if math.IsNaN(s.ICT[int(ni)*nc+int(toIdx)]) {
		return fmt.Errorf("estimate: node %q has no ict weight for component type %q", s.NodeNames[ni], s.TypeNames[s.CompType[toIdx]])
	}
	if s.NodeKind[ni] == core.BehaviorNode && s.IsMem(toIdx) {
		// Same rule, and same message, as Partition.Assign.
		return fmt.Errorf("partition: behavior %q may only map to a processor, not %q", s.NodeNames[ni], s.CompNames[toIdx])
	}

	// The dependent region whose Exectimes the move changes; empty when
	// no cost term reads an Exectime.
	var aff []int32
	if d.needEt {
		aff = d.deps.Affected(ni)
	}
	// Detach: cut/IO/traffic contributions of the channels touching n
	// (under the old buses and components) ...
	for _, ci := range s.Out(ni) {
		d.detachCut(ci)
	}
	for _, ci := range s.In(ni) {
		d.detachCut(ci)
	}
	// ... and the bitrate of every channel whose source Exectime is about
	// to change (the incident channels' sources are all in aff).
	if d.anyRate {
		for _, ai := range aff {
			for _, ci := range s.Out(ai) {
				if d.chBad[ci] {
					d.badCnt[d.asg.ChanBus[ci]]--
					d.chBad[ci] = false
				} else if d.hasRate[d.asg.ChanBus[ci]] {
					d.busRate[d.asg.ChanBus[ci]] -= d.chBr[ci]
				}
			}
		}
	}

	// Swap the node itself.
	d.sizeSum[fromIdx] -= s.Size[int(ni)*nc+int(fromIdx)]
	d.sizeSum[toIdx] += wTo
	d.asg.NodeComp[ni] = toIdx

	// Reattach under the new mapping: incident buses first (only they
	// can change under the endpoint-local policy), then the affected
	// Exectimes callee-first, then bitrates and cut sums.
	for _, ci := range s.Out(ni) {
		d.asg.ChanBus[ci] = d.chanBus(ci)
	}
	for _, ci := range s.In(ni) {
		d.asg.ChanBus[ci] = d.chanBus(ci)
	}
	if err := d.incr.RecomputeAffected(aff); err != nil {
		d.broken = true
		return err
	}
	if d.anyRate {
		for _, ai := range aff {
			for _, ci := range s.Out(ai) {
				bi := d.asg.ChanBus[ci]
				if !d.hasRate[bi] {
					continue
				}
				br, bad := d.bitrate(int(ci))
				d.chBr[ci], d.chBad[ci] = br, bad
				if bad {
					d.badCnt[bi]++
				} else {
					d.busRate[bi] += br
				}
			}
		}
	}
	for _, ci := range s.Out(ni) {
		d.attachCut(ci)
	}
	for _, ci := range s.In(ni) {
		d.attachCut(ci)
	}
	d.sinceRefresh++
	return nil
}

// syncNode writes node ni's committed state — its component and the buses
// of its incident channels — through to the bound Partition, keeping the
// caller-visible mirror current after a commit. Only channels incident to
// the moved node can have changed under the endpoint-local policy.
func (d *DeltaEval) syncNode(ni int32) {
	_ = d.pt.Assign(d.ev.G.Nodes[ni], d.comps[d.asg.NodeComp[ni]])
	for _, ci := range d.snap.Out(ni) {
		d.pt.AssignChan(d.chans[ci], d.buses[d.asg.ChanBus[ci]])
	}
	for _, ci := range d.snap.In(ni) {
		d.pt.AssignChan(d.chans[ci], d.buses[d.asg.ChanBus[ci]])
	}
}

// costNow evaluates the cost function from the materialized sums — the
// same terms, in the same order, as Evaluator.costWith.
func (d *DeltaEval) costNow() (float64, error) {
	w := d.w
	s := d.snap
	var cost float64
	for ci := range d.sizeSum {
		size := d.sizeSum[ci]
		if s.IsMem(int32(ci)) {
			cost += w.Size * excess(size, s.CompSizeCon[ci])
			continue
		}
		if s.CompCustom[ci] && d.ev.EstOpt.SharingFactor > 0 {
			size *= 1 - d.ev.EstOpt.SharingFactor
		}
		cost += w.Size * excess(size, s.CompSizeCon[ci])
		cost += w.Pins * excess(float64(d.ioSum[ci]), float64(s.CompPinCon[ci]))
	}
	if w.Time > 0 {
		for k, ni := range d.dlNode {
			if d.deps.Cyclic(ni) {
				return 0, cycleErr(s.NodeNames[ni])
			}
			cost += w.Time * excess(d.incr.Et(ni), d.dlLimit[k])
		}
	}
	if w.Rate > 0 {
		for k, bi := range d.rateBus {
			if d.badCnt[bi] > 0 {
				return 0, d.rateErr(bi)
			}
			rate := d.busRate[bi]
			if d.ev.EstOpt.ClampBusBitrate {
				if capacity, ok := estimate.BusCapacity(d.buses[bi]); ok && rate > capacity {
					rate = capacity
				}
			}
			cost += w.Rate * excess(rate, d.rateLim[k])
		}
	}
	if w.Comm > 0 && d.ev.totalTraffic > 0 {
		cost += w.Comm * d.cut / d.ev.totalTraffic
	}
	return cost, nil
}

// beginEval fires the fault-injection hook and counts the evaluation —
// the same per-evaluation observable sequence as Evaluator.Cost, so
// budgets, injected faults and eval accounting are strategy-independent.
func (d *DeltaEval) beginEval() error {
	if d.broken {
		return fmt.Errorf("partition: delta evaluator is broken by an earlier failed move; Rebind it")
	}
	if d.ev.Hook != nil {
		if err := d.ev.Hook.BeforeEval(); err != nil {
			return err
		}
	}
	d.ev.Evals++
	return nil
}

// MoveCost returns the cost the bound partition would have with n moved
// to `to`, leaving the partition as it was: the move is applied, costed
// and inverted. It counts as one evaluation.
func (d *DeltaEval) MoveCost(n *core.Node, to core.Component) (float64, error) {
	if err := d.beginEval(); err != nil {
		return 0, err
	}
	if err := d.refreshIfDue(); err != nil {
		return 0, err
	}
	ni, ok := d.deps.Index(n)
	if !ok {
		return 0, fmt.Errorf("partition: node %q is not in the evaluator's graph", n.Name)
	}
	toIdx, ok := d.compIdx[to]
	if !ok {
		return 0, fmt.Errorf("partition: component %q is not in the evaluator's graph", to.CompName())
	}
	fromIdx := d.asg.NodeComp[ni]
	if toIdx == fromIdx {
		return d.costNow()
	}
	if err := d.move(ni, toIdx); err != nil {
		return 0, err
	}
	cost, cerr := d.costNow()
	if err := d.move(ni, fromIdx); err != nil {
		d.broken = true // the forward move succeeded; its inverse cannot cleanly fail
		return 0, err
	}
	return cost, cerr
}

// Apply commits the move of n to `to` (a no-op if already there), writing
// the new state through to the bound Partition. It is bookkeeping, not an evaluation: no hook fires and no
// evaluation is counted, matching a search loop that trials with MoveCost
// and then commits the winner.
func (d *DeltaEval) Apply(n *core.Node, to core.Component) error {
	if d.broken {
		return fmt.Errorf("partition: delta evaluator is broken by an earlier failed move; Rebind it")
	}
	if err := d.refreshIfDue(); err != nil {
		return err
	}
	ni, ok := d.deps.Index(n)
	if !ok {
		return fmt.Errorf("partition: node %q is not in the evaluator's graph", n.Name)
	}
	toIdx, ok := d.compIdx[to]
	if !ok {
		return fmt.Errorf("partition: component %q is not in the evaluator's graph", to.CompName())
	}
	if err := d.move(ni, toIdx); err != nil {
		return err
	}
	d.syncNode(ni)
	return nil
}

// swapIdx resolves a swap's endpoints to dense indices and their current
// components, rejecting nodes outside the evaluator's graph.
func (d *DeltaEval) swapIdx(a, b *core.Node) (ai, bi, ca, cb int32, err error) {
	ai, ok := d.deps.Index(a)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("partition: node %q is not in the evaluator's graph", a.Name)
	}
	bi, ok = d.deps.Index(b)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("partition: node %q is not in the evaluator's graph", b.Name)
	}
	return ai, bi, d.asg.NodeComp[ai], d.asg.NodeComp[bi], nil
}

// SwapCost returns the cost the bound partition would have with nodes a
// and b exchanging components, leaving the partition as it was. The
// exchange is composed of two single-node moves — each a correct
// transition of every sum, so their composition needs no special handling
// of channels the two nodes share — then inverted in reverse order. It
// counts as one evaluation, exactly like MoveCost. A degenerate swap
// (a == b, or both on one component) is costed as a no-op.
func (d *DeltaEval) SwapCost(a, b *core.Node) (float64, error) {
	if err := d.beginEval(); err != nil {
		return 0, err
	}
	if err := d.refreshIfDue(); err != nil {
		return 0, err
	}
	ai, bi, ca, cb, err := d.swapIdx(a, b)
	if err != nil {
		return 0, err
	}
	if ai == bi || ca == cb {
		return d.costNow()
	}
	if err := d.move(ai, cb); err != nil {
		return 0, err
	}
	if err := d.move(bi, ca); err != nil {
		// b cannot host a's component: roll a back. The inverse of a
		// completed move validates trivially, so a failure here means
		// the sums are no longer trustworthy.
		if rerr := d.move(ai, ca); rerr != nil {
			d.broken = true
			return 0, rerr
		}
		return 0, err
	}
	cost, cerr := d.costNow()
	if err := d.move(bi, cb); err != nil {
		d.broken = true
		return 0, err
	}
	if err := d.move(ai, ca); err != nil {
		d.broken = true
		return 0, err
	}
	return cost, cerr
}

// ApplySwap commits the exchange of a's and b's components, writing the
// new state through to the bound Partition. Like Apply it is bookkeeping:
// no hook fires and no evaluation is counted. A degenerate swap commits
// nothing.
func (d *DeltaEval) ApplySwap(a, b *core.Node) error {
	if d.broken {
		return fmt.Errorf("partition: delta evaluator is broken by an earlier failed move; Rebind it")
	}
	if err := d.refreshIfDue(); err != nil {
		return err
	}
	ai, bi, ca, cb, err := d.swapIdx(a, b)
	if err != nil {
		return err
	}
	if ai == bi || ca == cb {
		return nil
	}
	if err := d.move(ai, cb); err != nil {
		return err
	}
	if err := d.move(bi, ca); err != nil {
		if rerr := d.move(ai, ca); rerr != nil {
			d.broken = true
			return rerr
		}
		return err
	}
	d.syncNode(ai)
	d.syncNode(bi)
	return nil
}

// Cost counts one evaluation and returns the cost of the bound partition,
// re-deriving the floating-point sums first so the value carries no
// incremental drift (it matches the full recompute up to summation-order
// rounding).
func (d *DeltaEval) Cost() (float64, error) {
	if err := d.beginEval(); err != nil {
		return 0, err
	}
	if err := d.refresh(); err != nil {
		d.broken = true
		return 0, err
	}
	return d.costNow()
}

// costCandidate costs the current assignment vector from scratch: every
// channel's bus re-derived by the policy, every Exectime recomputed
// callee-first when a cost term reads one, every sum re-derived —
// O(graph), but pure array work with zero allocations and no Partition
// access, which is what lets Random, Exhaustive and ClusterGreedy cost
// thousands of whole candidate designs per second. It counts one
// evaluation. The bound Partition is NOT updated; callers own the
// assignment vector and materialize a Partition only for the winner.
func (d *DeltaEval) costCandidate() (float64, error) {
	if err := d.beginEval(); err != nil {
		return 0, err
	}
	for ci := range d.asg.ChanBus {
		d.asg.ChanBus[ci] = d.chanBus(int32(ci))
	}
	if d.needEt {
		if err := d.incr.RecomputeAffected(d.deps.Order()); err != nil {
			d.broken = true
			return 0, err
		}
	}
	if err := d.refresh(); err != nil {
		d.broken = true
		return 0, err
	}
	return d.costNow()
}

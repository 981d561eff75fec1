// Package partition implements the partitioning task of §1/§3: searching
// for a mapping of SLIF functional objects onto an allocated set of system
// components that satisfies size, pin, performance and bitrate constraints.
//
// The cost function is a SpecSyn-style normalized constraint-violation sum,
// with an optional communication term so the search has a direction once
// feasibility is reached. Every candidate partition is evaluated with the
// §3 equations — fast enough, thanks to SLIF's preprocessing, that the
// algorithms here really do "explore thousands of possible designs" (§5).
package partition

import (
	"fmt"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/faultinject"
)

// Constraints carries design constraints beyond the per-component size/pin
// constraints stored on the components themselves.
type Constraints struct {
	// Deadline is the maximum execution time (µs) per process node name.
	Deadline map[string]float64
	// MaxBusRate is the maximum bitrate (bits/µs) per bus name.
	MaxBusRate map[string]float64
}

// Weights scales each violation class in the cost. A zero weight disables
// the class.
type Weights struct {
	Size float64 // component size constraint excess
	Pins float64 // component pin constraint excess
	Time float64 // process deadline excess
	Rate float64 // bus bitrate excess
	Comm float64 // secondary objective: fraction of traffic crossing components
}

// DefaultWeights weight all violation classes equally, with a small
// communication term to order feasible partitions.
func DefaultWeights() Weights {
	return Weights{Size: 1, Pins: 1, Time: 1, Rate: 1, Comm: 0.1}
}

// Evaluator computes the cost of partitions over one graph. It counts
// evaluations, which the benchmarks report as "designs explored".
//
// An Evaluator is stateful (evaluation counter, pooled estimator) and must
// not be shared between goroutines; give each worker its own Clone.
// EstOpt is captured by the pooled estimator on the first Cost call and
// must not change afterwards.
type Evaluator struct {
	G      *core.Graph
	Cons   Constraints
	W      Weights
	EstOpt estimate.Options

	// Hook, when non-nil, fires before every cost evaluation — the
	// fault-injection seam. Production runs leave it nil, which costs a
	// single predicted branch per evaluation. The parallel engine derives
	// per-leg hooks from it via ForLeg; a hook used sequentially must be
	// single-goroutine (evaluators are anyway).
	Hook faultinject.Hook

	Evals int

	// Deps memoizes the graph's compiled snapshot and dependency index;
	// it must not be nil. NewEvaluator gives each evaluator its own,
	// Clone shares it, and a session hands in its own so searches over an
	// unchanged graph skip recompilation. A parallel fleet of workers
	// thus pays for compilation once, and every clone's delta evaluator
	// shrinks to scratch arrays over the one shared copy.
	Deps *estimate.DepsCache

	totalTraffic float64             // Σ freq×bits over non-port channels, for Comm normalization
	est          *estimate.Estimator // pooled, rebound per evaluation
	delta        *DeltaEval          // pooled incremental evaluator (see Delta)
	deltaErr     error               // sticky: graph does not support incremental evaluation
}

// NewEvaluator returns an evaluator for g.
func NewEvaluator(g *core.Graph, cons Constraints, w Weights, estOpt estimate.Options) *Evaluator {
	ev := &Evaluator{G: g, Cons: cons, W: w, EstOpt: estOpt, Deps: &estimate.DepsCache{}}
	for _, c := range g.Channels {
		if _, isPort := c.Dst.(*core.Port); isPort {
			// Port traffic is external under every partition, and the Comm
			// term skips it; keeping it out of the normalizer too makes the
			// term a true fraction of the traffic a partition can affect.
			continue
		}
		ev.totalTraffic += c.AccFreq * float64(c.Bits)
	}
	return ev
}

// Clone returns an evaluator over the same graph, constraints, weights and
// options but with its own evaluation counter and estimator pool — the
// per-worker instance the parallel search engine hands each goroutine.
// The compiled Snapshot and dependency index are shared with the original
// through Deps (they are immutable), so cloning is cheap no matter the
// graph size.
func (ev *Evaluator) Clone() *Evaluator {
	return &Evaluator{
		G: ev.G, Cons: ev.Cons, W: ev.W, EstOpt: ev.EstOpt, Hook: ev.Hook, Deps: ev.Deps,
		totalTraffic: ev.totalTraffic,
	}
}

// Snapshot returns the graph's compiled snapshot, shared read-only across
// the evaluator and every clone. It errors when the graph cannot be
// compiled.
func (ev *Evaluator) Snapshot() (*core.Snapshot, error) {
	deps, err := ev.Deps.For(ev.G)
	if err != nil {
		return nil, err
	}
	return deps.Snapshot(), nil
}

// estimator returns the pooled estimator rebound to pt.
func (ev *Evaluator) estimator(pt *core.Partition) *estimate.Estimator {
	if ev.est == nil {
		ev.est = estimate.New(ev.G, pt, ev.EstOpt)
	} else {
		ev.est.Rebind(pt)
	}
	return ev.est
}

// excess returns the normalized amount by which val exceeds limit; 0 when
// within the limit or unconstrained (limit <= 0).
func excess(val, limit float64) float64 {
	if limit <= 0 || val <= limit {
		return 0
	}
	return (val - limit) / limit
}

// Cost evaluates the partition. A cost of 0 means every constraint is met
// and no weighted secondary objective applies; lower is better. Partitions
// the estimator cannot evaluate (missing weights, unmapped objects) return
// an error.
func (ev *Evaluator) Cost(pt *core.Partition) (float64, error) {
	return ev.costWith(pt, ev.W)
}

// costWith evaluates pt under an explicit weight set, so callers can vary
// weights (Feasible disables Comm) without mutating shared state.
func (ev *Evaluator) costWith(pt *core.Partition, w Weights) (float64, error) {
	if ev.Hook != nil {
		if err := ev.Hook.BeforeEval(); err != nil {
			return 0, err
		}
	}
	ev.Evals++
	return ev.costOf(pt, w)
}

// costOf is costWith without the hook and the evaluation count.
func (ev *Evaluator) costOf(pt *core.Partition, w Weights) (float64, error) {
	est := ev.estimator(pt)
	var cost float64

	for _, comp := range ev.G.Components() {
		size, err := est.Size(comp)
		if err != nil {
			return 0, err
		}
		switch c := comp.(type) {
		case *core.Processor:
			cost += w.Size * excess(size, c.SizeCon)
			cost += w.Pins * excess(float64(est.IO(comp)), float64(c.PinCon))
		case *core.Memory:
			cost += w.Size * excess(size, c.SizeCon)
		}
	}

	if w.Time > 0 {
		for _, p := range ev.G.Processes() {
			limit, ok := ev.Cons.Deadline[p.Name]
			if !ok {
				continue
			}
			et, err := est.Exectime(p)
			if err != nil {
				return 0, err
			}
			cost += w.Time * excess(et, limit)
		}
	}

	if w.Rate > 0 {
		for _, b := range ev.G.Buses {
			limit, ok := ev.Cons.MaxBusRate[b.Name]
			if !ok {
				continue
			}
			rate, err := est.BusBitrate(b)
			if err != nil {
				return 0, err
			}
			cost += w.Rate * excess(rate, limit)
		}
	}

	if w.Comm > 0 && ev.totalTraffic > 0 {
		var cut float64
		for _, c := range ev.G.Channels {
			if _, isPort := c.Dst.(*core.Port); isPort {
				continue // external traffic is cut under every partition
			}
			src, dst := pt.BvComp(c.Src), pt.DstComp(c)
			if src == nil || dst == nil {
				continue // an unmapped endpoint is not attributable to a cut
			}
			if src != dst {
				cut += c.AccFreq * float64(c.Bits)
			}
		}
		cost += w.Comm * cut / ev.totalTraffic
	}

	return cost, nil
}

// Feasible reports whether the partition meets every hard constraint
// (i.e. cost with the communication term disabled is zero). It evaluates
// with a value copy of the weights: ev.W is never written, so Feasible
// cannot skew an interleaved Cost call or race with one.
func (ev *Evaluator) Feasible(pt *core.Partition) (bool, error) {
	w := ev.W
	w.Comm = 0
	cost, err := ev.costWith(pt, w)
	if err != nil {
		return false, err
	}
	return cost == 0, nil
}

// Allowed returns the components a node may map to: processors for
// behaviors; processors and memories for variables — restricted to
// components whose type the node has weights for.
func Allowed(g *core.Graph, n *core.Node) []core.Component {
	var out []core.Component
	for _, p := range g.Procs {
		if _, ok := n.ICT[p.TypeName]; ok {
			out = append(out, p)
		}
	}
	if !n.IsBehavior() {
		for _, m := range g.Mems {
			if _, ok := n.ICT[m.TypeName]; ok {
				out = append(out, m)
			}
		}
	}
	return out
}

// BusPolicy derives the channel→bus mapping from the node mapping. The
// paper treats channel mapping as part of the partition; in practice tools
// re-derive it after each node move, which is what the algorithms here do.
// A channel whose endpoints share a component rides the Internal bus; a
// component-crossing or port channel rides the External one. The choice
// depends only on the channel's own endpoints, so the delta evaluator
// re-derives just the channels incident to a moved node.
type BusPolicy struct{ Internal, External *core.Bus }

// SingleBus maps every channel to one bus.
func SingleBus(b *core.Bus) BusPolicy { return BusPolicy{b, b} }

// InternalExternal maps component-internal channels to the internal bus and
// component-crossing (or port) channels to the external bus.
func InternalExternal(internal, external *core.Bus) BusPolicy {
	return BusPolicy{internal, external}
}

// DefaultPolicy is the bus policy every search front end uses for g's
// allocation: a single bus carries everything; with two or more buses the
// first is the external (inter-component) bus and the second the
// internal one. g must have at least one bus.
func DefaultPolicy(g *core.Graph) BusPolicy {
	if len(g.Buses) > 1 {
		return InternalExternal(g.Buses[1], g.Buses[0])
	}
	return SingleBus(g.Buses[0])
}

// ApplyBusPolicy rewrites the partition's channel mapping per the policy.
func ApplyBusPolicy(pt *core.Partition, policy BusPolicy) error {
	if policy.Internal == nil || policy.External == nil {
		return fmt.Errorf("partition: bus policy has a nil bus")
	}
	for _, c := range pt.Graph().Channels {
		b := policy.External
		if dst := pt.DstComp(c); dst != nil && dst == pt.BvComp(c.Src) {
			b = policy.Internal
		}
		pt.AssignChan(c, b)
	}
	return nil
}

package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"specsyn/internal/core"
)

// Config parameterizes the search algorithms.
type Config struct {
	Eval     *Evaluator
	Policy   BusPolicy
	Seed     int64
	MaxIters int // algorithm-specific iteration budget; 0 = default

	// MaxEvals caps the cost evaluations a run may spend; 0 = unlimited.
	// A search that exhausts the budget stops and returns its best-so-far
	// result with Partial set (anytime semantics), possibly spending one
	// grace evaluation to cost the final partition of a constructive
	// algorithm. Parallel engines split the budget deterministically
	// across legs, so a budgeted run is still reproducible at a fixed
	// seed and leg plan.
	MaxEvals int

	// SwapProb, when positive, makes Anneal propose a pair-swap move (two
	// nodes exchanging components, costed in one SwapCost evaluation) with
	// this probability per iteration instead of a single-node move. Zero
	// keeps the historical single-move proposal stream bit-identical.
	SwapProb float64
}

// checkInterval is how many candidates/iterations a search hot loop runs
// between cooperative cancellation checks. Polling the context is a mutex
// acquisition, so amortizing it keeps the allocation-free fast path from
// the parallel engine intact; a cancel therefore takes effect within at
// most this many evaluations.
const checkInterval = 64

// cancelled polls the context; nil contexts never cancel, so internal
// callers can pass whatever they were handed.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// budgetLeft reports whether the run may spend another evaluation. A
// negative MaxEvals means an already-exhausted budget (the parallel
// engine's way of giving a leg a zero quota), as opposed to 0 = unlimited.
func (c Config) budgetLeft(start int) bool {
	if c.MaxEvals == 0 {
		return true
	}
	if c.MaxEvals < 0 {
		return false
	}
	return c.Eval.Evals-start < c.MaxEvals
}

// Result is the outcome of one search run.
type Result struct {
	Best  *core.Partition
	Cost  float64
	Evals int // partitions estimated during this run

	// Partial marks an anytime result: the search stopped early — context
	// cancelled, deadline passed, or evaluation budget exhausted — and
	// Best is the best candidate seen so far rather than the algorithm's
	// converged answer. Best may be nil if the search was stopped before
	// it evaluated anything.
	Partial bool

	// FinalTemp is set by Anneal only: the temperature after the last
	// iteration. The geometric schedule cools once per iteration, so for a
	// fixed MaxIters it always lands at the same value (≈0.01).
	FinalTemp float64
}

func (r Result) String() string {
	s := fmt.Sprintf("cost %.4f after %d evaluations", r.Cost, r.Evals)
	if r.Partial {
		s += " (partial)"
	}
	return s
}

// sampler is a tiny splitmix64 PRNG used to draw random candidates. Unlike
// a single math/rand stream, every candidate index gets its own stream
// derived from (seed, index), so a run sharded across parallel legs
// enumerates exactly the same candidates as a sequential one — the basis
// of the engine's determinism guarantee. Seeding is two multiplies, not
// math/rand's 607-word table fill, so per-candidate reseeding is free.
type sampler struct{ state uint64 }

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// candidateSampler returns the sampler for one candidate index.
func candidateSampler(seed int64, candidate int) sampler {
	return sampler{state: mix64(uint64(seed)) + 0x9E3779B97F4A7C15*uint64(candidate)}
}

func (s *sampler) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return mix64(s.state)
}

// intn returns a value in [0, n). The modulo bias is negligible for the
// handful of candidate components a node ever has.
func (s *sampler) intn(n int) int { return int(s.next() % uint64(n)) }

// candidateTable precomputes Allowed for every node once, in g.Nodes order,
// so the sampling loop does no per-candidate slice allocation.
func candidateTable(g *core.Graph) ([][]core.Component, error) {
	table := make([][]core.Component, len(g.Nodes))
	for i, n := range g.Nodes {
		table[i] = Allowed(g, n)
		if len(table[i]) == 0 {
			return nil, fmt.Errorf("partition: node %q has no candidate component", n.Name)
		}
	}
	return table, nil
}

// Random samples MaxIters (default 1000) random legal partitions and
// returns the best — the baseline every smarter algorithm must beat, and
// the workload for the "thousands of possible designs" speed claim. On
// cancellation or budget exhaustion it returns the best candidate seen so
// far with Partial set.
func Random(ctx context.Context, g *core.Graph, cfg Config) (Result, error) {
	r, err := randomShard(ctx, g, cfg, 0, cfg.randomIters())
	return exact(cfg.Eval, r, err)
}

// exact replaces r.Cost with the full cost function's value for r.Best.
// The searches cost candidates through the delta evaluator, whose running
// sums can drift by rounding, even below zero, so a search recomputes the
// cost of the partition it returns once, at return. The recomputation is
// not counted as an evaluation.
func exact(ev *Evaluator, r Result, err error) (Result, error) {
	if err != nil || r.Best == nil {
		return r, err
	}
	if r.Cost, err = ev.costOf(r.Best, ev.W); err != nil {
		return Result{}, err
	}
	return r, nil
}

// randomIters is the length of Random's candidate enumeration: MaxIters,
// default 1000.
func (c Config) randomIters() int {
	if c.MaxIters <= 0 {
		return 1000
	}
	return c.MaxIters
}

// randomShard evaluates the candidates with indices [lo, hi) of the
// deterministic candidate enumeration defined by cfg.Seed. Each candidate
// is written straight into the delta evaluator's assignment vector and
// costed from the compiled snapshot, with zero allocations per candidate;
// a Partition is materialized only for the winner. Ties keep the earliest
// candidate, matching what a sequential first-strictly-better scan would
// keep. The context is polled every checkInterval candidates.
func randomShard(ctx context.Context, g *core.Graph, cfg Config, lo, hi int) (Result, error) {
	start := cfg.Eval.Evals
	d, ids, err := bindVector(g, cfg)
	if err != nil {
		return Result{}, err
	}
	bestVec := make([]int32, len(ids))
	bestCost := math.Inf(1)
	found, partial := false, false
	for i := lo; i < hi; i++ {
		if (i-lo)%checkInterval == 0 && cancelled(ctx) {
			partial = true
			break
		}
		if !cfg.budgetLeft(start) {
			partial = true
			break
		}
		s := candidateSampler(cfg.Seed, i)
		for j, cands := range ids {
			d.asg.NodeComp[j] = cands[s.intn(len(cands))]
		}
		cost, err := d.costCandidate()
		if err != nil {
			return Result{}, err
		}
		if cost < bestCost {
			bestCost, found = cost, true
			copy(bestVec, d.asg.NodeComp)
		}
	}
	var best *core.Partition
	if found {
		if best, err = materialize(g, d, bestVec, cfg.Policy); err != nil {
			return Result{}, err
		}
	}
	return Result{Best: best, Cost: bestCost, Evals: cfg.Eval.Evals - start, Partial: partial}, nil
}

// bindVector binds the evaluator's delta evaluator for a search that
// builds whole candidates on the assignment vector (Random, Exhaustive,
// ClusterGreedy), starting from every node on its first candidate. It
// returns each node's candidate component IDs, in Allowed order.
func bindVector(g *core.Graph, cfg Config) (*DeltaEval, [][]int32, error) {
	table, err := candidateTable(g)
	if err != nil {
		return nil, nil, err
	}
	pt := core.NewPartition(g)
	for j, n := range g.Nodes {
		if err := pt.Assign(n, table[j][0]); err != nil {
			return nil, nil, err
		}
	}
	d, err := cfg.Eval.Delta(pt, cfg.Policy)
	if err != nil {
		return nil, nil, err
	}
	ids := make([][]int32, len(table))
	for j, cands := range table {
		ids[j] = d.compIDs(cands)
	}
	return d, ids, nil
}

// compIDs translates components to the delta evaluator's component IDs.
func (d *DeltaEval) compIDs(cs []core.Component) []int32 {
	ids := make([]int32, len(cs))
	for k, c := range cs {
		ids[k] = d.compIdx[c]
	}
	return ids
}

// materialize builds the Partition for an assignment vector, with its
// channel mapping derived by the policy.
func materialize(g *core.Graph, d *DeltaEval, vec []int32, policy BusPolicy) (*core.Partition, error) {
	pt := core.NewPartition(g)
	for j, n := range g.Nodes {
		if err := pt.Assign(n, d.comps[vec[j]]); err != nil {
			return nil, err
		}
	}
	if err := ApplyBusPolicy(pt, policy); err != nil {
		return nil, err
	}
	return pt, nil
}

// Greedy builds a partition constructively: nodes in descending traffic
// order, each placed on the candidate component that minimizes the cost of
// the partial mapping (unplaced nodes temporarily ride on the first
// candidate so the estimate is always defined). Cancelled or
// budget-exhausted runs stop placing and return the (always complete and
// legal) mapping built so far with Partial set, spending one grace
// evaluation to cost it.
func Greedy(ctx context.Context, g *core.Graph, cfg Config) (Result, error) {
	r, err := greedyRotated(ctx, g, cfg, 0)
	return exact(cfg.Eval, r, err)
}

// greedyRotated is Greedy with the constructive order rotated left by
// rotate positions — the multi-start engine's source of distinct greedy
// legs. rotate 0 is the canonical heaviest-communicators-first order.
func greedyRotated(ctx context.Context, g *core.Graph, cfg Config, rotate int) (Result, error) {
	start := cfg.Eval.Evals

	// Seed: everything on its first candidate.
	m, ids, err := bindVector(g, cfg)
	if err != nil {
		return Result{}, err
	}

	// Node order: heaviest communicators first.
	traffic := make([]float64, len(g.Nodes))
	for ci, c := range g.Channels {
		v := c.AccFreq * float64(c.Bits)
		traffic[m.snap.ChanSrc[ci]] += v
		if di := m.snap.ChanDst[ci]; di >= 0 {
			traffic[di] += v
		}
	}
	order := make([]int32, len(g.Nodes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return traffic[order[i]] > traffic[order[j]] })
	if len(order) > 0 {
		if r := rotate % len(order); r > 0 {
			order = append(order[r:], order[:r]...)
		}
	}

	partial := false
place:
	for _, ni := range order {
		if cancelled(ctx) || !cfg.budgetLeft(start) {
			partial = true
			break
		}
		bestCost := math.Inf(1)
		best := m.asg.NodeComp[ni] // kept if no candidate beats +Inf
		for _, c := range ids[ni] {
			cost, err := m.MoveCost(g.Nodes[ni], m.comps[c])
			if err != nil {
				return Result{}, err
			}
			if cost < bestCost {
				bestCost, best = cost, c
			}
			if !cfg.budgetLeft(start) {
				// Mid-node budget exhaustion: commit the best candidate
				// tried so far (the mapping stays complete) and stop. No
				// candidate may have beaten +Inf yet (every cost so far
				// NaN); the node then stays where it is.
				if err := m.Apply(g.Nodes[ni], m.comps[best]); err != nil {
					return Result{}, err
				}
				partial = true
				break place
			}
		}
		if err := m.Apply(g.Nodes[ni], m.comps[best]); err != nil {
			return Result{}, err
		}
	}
	cost, err := m.Cost()
	if err != nil {
		return Result{}, err
	}
	return Result{Best: m.pt, Cost: cost, Evals: cfg.Eval.Evals - start, Partial: partial}, nil
}

// GroupMigration is a Kernighan–Lin style improvement pass over an initial
// partition: repeatedly, every node is trial-moved to every other candidate
// component, the single best move is committed and the node locked; a pass
// ends when all nodes are locked, the best prefix of moves is kept, and
// passes repeat until one yields no improvement. Cancellation or budget
// exhaustion abandons the in-flight pass and returns the last committed
// partition with Partial set — committed prefixes are never lost.
func GroupMigration(ctx context.Context, init *core.Partition, cfg Config) (Result, error) {
	g := init.Graph()
	start := cfg.Eval.Evals
	cur := init.Clone()
	// This binding is used for exactly one evaluation: each pass rebinds
	// the evaluator's pooled delta state to its own working clone, so a
	// binding is never held across pass boundaries.
	d, err := cfg.Eval.Delta(cur, cfg.Policy)
	if err != nil {
		return Result{}, err
	}
	curCost, err := d.Cost()
	if err != nil {
		return Result{}, err
	}

	partial := false
	maxPasses := cfg.MaxIters
	if maxPasses <= 0 {
		maxPasses = 10
	}
	for pass := 0; pass < maxPasses; pass++ {
		type move struct {
			n    *core.Node
			from core.Component
			to   core.Component
			cost float64 // cost after this move in the sequence
		}
		locked := map[*core.Node]bool{}
		work := cur.Clone()
		wm, err := cfg.Eval.Delta(work, cfg.Policy)
		if err != nil {
			return Result{}, err
		}
		var seq []move

		for len(locked) < len(g.Nodes) {
			if cancelled(ctx) || !cfg.budgetLeft(start) {
				partial = true
				break
			}
			bestCost := math.Inf(1)
			var bestMove *move
			for _, n := range g.Nodes {
				if locked[n] {
					continue
				}
				from := work.BvComp(n)
				for _, to := range Allowed(g, n) {
					if to == from {
						continue
					}
					cost, err := wm.MoveCost(n, to)
					if err != nil {
						return Result{}, err
					}
					if cost < bestCost {
						bestCost = cost
						bestMove = &move{n: n, from: from, to: to, cost: cost}
					}
				}
			}
			if bestMove == nil {
				break // every unlocked node has a single candidate
			}
			if err := wm.Apply(bestMove.n, bestMove.to); err != nil {
				return Result{}, err
			}
			locked[bestMove.n] = true
			seq = append(seq, *bestMove)
		}

		// Keep the best prefix of the move sequence.
		bestPrefix, bestPrefixCost := 0, curCost
		for i, m := range seq {
			if m.cost < bestPrefixCost {
				bestPrefix, bestPrefixCost = i+1, m.cost
			}
		}
		if bestPrefix == 0 {
			break // no improving prefix: converged (or pass abandoned dry)
		}
		for _, m := range seq[:bestPrefix] {
			if err := cur.Assign(m.n, m.to); err != nil {
				return Result{}, err
			}
		}
		curCost = bestPrefixCost
		if err := ApplyBusPolicy(cur, cfg.Policy); err != nil {
			return Result{}, err
		}
		if partial {
			break
		}
	}
	return exact(cfg.Eval, Result{Best: cur, Cost: curCost, Evals: cfg.Eval.Evals - start, Partial: partial}, nil)
}

// Anneal runs simulated annealing from an initial partition: random node
// moves — plus, with Config.SwapProb, random pair exchanges — accepted
// when improving or with Boltzmann probability otherwise, geometric
// cooling. A cancelled or budget-exhausted run returns the best partition
// seen so far with Partial set; the context is polled every checkInterval
// iterations so the RNG stream is untouched by the checks.
func Anneal(ctx context.Context, init *core.Partition, cfg Config) (Result, error) {
	r, err := anneal(ctx, init, cfg)
	return exact(cfg.Eval, r, err)
}

// anneal is Anneal without the final recomputation of the cost, for the
// portfolio's strands, whose costs are recomputed once at the merge.
func anneal(ctx context.Context, init *core.Partition, cfg Config) (Result, error) {
	g := init.Graph()
	start := cfg.Eval.Evals
	rng := rand.New(rand.NewSource(cfg.Seed))

	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 2000
	}
	cur := init.Clone()
	m, err := cfg.Eval.Delta(cur, cfg.Policy)
	if err != nil {
		return Result{}, err
	}
	curCost, err := m.Cost()
	if err != nil {
		return Result{}, err
	}
	// The walk runs on the assignment vector; the best is a copy of it,
	// materialized once at return.
	vec := m.asg.NodeComp
	bestVec := slices.Clone(vec)
	bestCost := curCost

	temp := math.Max(curCost, 1.0)
	cool := math.Pow(0.01/temp, 1/float64(iters)) // end near temp=0.01

	cands := make([][]int32, len(g.Nodes))
	movable := make([]int32, 0, len(g.Nodes))
	for j, n := range g.Nodes {
		cands[j] = m.compIDs(Allowed(g, n))
		if len(cands[j]) > 1 {
			movable = append(movable, int32(j))
		}
	}
	if len(movable) == 0 {
		best, err := materialize(g, m, bestVec, cfg.Policy)
		if err != nil {
			return Result{}, err
		}
		return Result{Best: best, Cost: bestCost, Evals: cfg.Eval.Evals - start}, nil
	}

	partial := false
	for i := 0; i < iters; i++ {
		if i%checkInterval == 0 && cancelled(ctx) {
			partial = true
			break
		}
		if !cfg.budgetLeft(start) {
			partial = true
			break
		}
		if cfg.SwapProb > 0 && len(movable) > 1 && rng.Float64() < cfg.SwapProb {
			a := movable[rng.Intn(len(movable))]
			b := movable[rng.Intn(len(movable))]
			ca, cb := vec[a], vec[b]
			if a != b && ca != cb && slices.Contains(cands[a], cb) && slices.Contains(cands[b], ca) {
				cost, err := m.SwapCost(g.Nodes[a], g.Nodes[b])
				if err != nil {
					return Result{}, err
				}
				if cost <= curCost || rng.Float64() < math.Exp((curCost-cost)/temp) {
					if err := m.ApplySwap(g.Nodes[a], g.Nodes[b]); err != nil {
						return Result{}, err
					}
					curCost = cost
					if cost < bestCost {
						bestCost = cost
						copy(bestVec, vec)
					}
				}
				temp *= cool
				continue
			}
			// Infeasible draw (same node, same component, or a component the
			// partner cannot host): fall through to a single-node move so
			// the iteration still proposes something and cools exactly once.
		}
		n := movable[rng.Intn(len(movable))]
		nc := cands[n]
		// Draw the destination from the candidates excluding the current
		// one, so every iteration proposes a real move and cools exactly
		// once. (Redrawing on to == from made the effective schedule
		// length depend on how often the RNG hit the current component:
		// two runs with equal MaxIters saw different final temperatures.)
		var to int32
		if fromIdx := slices.Index(nc, vec[n]); fromIdx < 0 {
			// Initial partition mapped n outside its candidate set; any
			// candidate is a real move.
			to = nc[rng.Intn(len(nc))]
		} else {
			j := rng.Intn(len(nc) - 1)
			if j >= fromIdx {
				j++
			}
			to = nc[j]
		}
		cost, err := m.MoveCost(g.Nodes[n], m.comps[to])
		if err != nil {
			return Result{}, err
		}
		accept := cost <= curCost || rng.Float64() < math.Exp((curCost-cost)/temp)
		if accept {
			if err := m.Apply(g.Nodes[n], m.comps[to]); err != nil {
				return Result{}, err
			}
			curCost = cost
			if cost < bestCost {
				bestCost = cost
				copy(bestVec, vec)
			}
		}
		temp *= cool
	}
	best, err := materialize(g, m, bestVec, cfg.Policy)
	if err != nil {
		return Result{}, err
	}
	return Result{Best: best, Cost: bestCost, Evals: cfg.Eval.Evals - start, Partial: partial, FinalTemp: temp}, nil
}

// Exhaustive enumerates every legal partition — exponential, usable only
// for small graphs; the oracle the heuristics are tested against. On
// cancellation or budget exhaustion the enumeration stops and the best
// partition found so far is returned with Partial set.
func Exhaustive(ctx context.Context, g *core.Graph, cfg Config) (Result, error) {
	start := cfg.Eval.Evals
	d, ids, err := bindVector(g, cfg)
	if err != nil {
		return Result{}, err
	}
	total := 1.0
	for _, cands := range ids {
		if total *= float64(len(cands)); total > 1e7 {
			return Result{}, fmt.Errorf("partition: search space too large for exhaustive enumeration (%g partitions)", total)
		}
	}
	vec := d.asg.NodeComp
	bestVec := make([]int32, len(ids))
	bestCost := math.Inf(1)
	found, partial := false, false
	visited := 0
	var recurse func(i int) error
	recurse = func(i int) error {
		if i == len(ids) {
			if visited%checkInterval == 0 && cancelled(ctx) {
				partial = true
				return nil
			}
			if !cfg.budgetLeft(start) {
				partial = true
				return nil
			}
			visited++
			cost, err := d.costCandidate()
			if err != nil {
				return err
			}
			if cost < bestCost {
				bestCost, found = cost, true
				copy(bestVec, vec)
			}
			return nil
		}
		for _, c := range ids[i] {
			vec[i] = c
			if err := recurse(i + 1); err != nil || partial {
				return err
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return Result{}, err
	}
	var best *core.Partition
	if found {
		if best, err = materialize(g, d, bestVec, cfg.Policy); err != nil {
			return Result{}, err
		}
	}
	return exact(cfg.Eval, Result{Best: best, Cost: bestCost, Evals: cfg.Eval.Evals - start, Partial: partial}, nil)
}

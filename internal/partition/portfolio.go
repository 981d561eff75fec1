package partition

// The adaptive portfolio orchestrator: MultiStart's mixed leg portfolio
// run in eval-budget rounds instead of fire-and-forget. Each leg becomes a
// strand with persistent state (its best partition, its seed lineage, its
// shard cursor); every round, the live strands each run one budgeted step
// on the worker pool, publish their bests to a lock-free incumbent board,
// and meet at a barrier where all cross-leg decisions happen in leg-index
// order: the incumbent is updated, the anytime curve is sampled, strands
// lagging the incumbent by more than the kill margin are killed and
// respawned with perturbed derived seeds, and (with sharing on) lagging
// strands are scheduled to reheat their next annealing step from the
// shared incumbent.
//
// Determinism: a step is a pure function of (strand state, round) — its
// RNG stream derives from the strand's seed lineage and the round index,
// never from scheduling. Because strands only read each other's state at
// barriers, and barriers process strands in index order, the whole run is
// reproducible for a fixed seed and leg count at ANY worker count, with
// sharing on or off. (The acceptance bar is fixed seed + worker count;
// the barrier design gives the stronger property.) Only the curve's
// ElapsedMs field is wall clock.
//
// The incumbent board is the strands' mid-round observable: every step
// CAS-publishes its result cost as it finishes, so the board converges to
// the strand minimum before the barrier reads it; the epoch counts
// improvements. Faults are contained per step exactly like the static
// engine's per leg: a panicking step is recorded with stack and seed, the
// strand's pre-fault best survives for the merge, and the strand is
// respawned while the respawn budget lasts.

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"specsyn/internal/core"
)

// incumbentBoard is the lock-free cross-leg blackboard: the best cost any
// strand has published, plus an epoch bumped once per improvement.
type incumbentBoard struct {
	bits  atomic.Uint64 // math.Float64bits of the best published cost
	epoch atomic.Uint64 // improvements published so far
}

func newIncumbentBoard() *incumbentBoard {
	b := &incumbentBoard{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *incumbentBoard) best() float64 { return math.Float64frombits(b.bits.Load()) }

// publish CAS-mins cost into the board; reports whether it improved.
func (b *incumbentBoard) publish(cost float64) bool {
	for {
		old := b.bits.Load()
		if !(cost < math.Float64frombits(old)) {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(cost)) {
			b.epoch.Add(1)
			return true
		}
	}
}

// strand is one leg's persistent state across rounds.
type strand struct {
	idx      int
	kind     string // current kind: "greedy", "anneal" or "random"
	lineage  int64  // seed lineage; step r uses legSeed(lineage, r)
	initSeed int64  // random-start seed for the next fresh annealing step
	rotate   int    // greedy constructive-order rotation
	lo, hi   int    // random shard cursor (kind "random")

	best     *core.Partition
	cost     float64
	evals    int
	started  bool
	fresh    bool // next step anneals from a random start
	reheat   bool // next step anneals from the shared incumbent
	done     bool // no further rounds: shard exhausted or terminally failed
	failed   bool // terminal fault with no respawn budget left
	respawns int
}

// adaptiveMultiStart is MultiStart's round-based orchestrator; see the
// file comment for the design and ParallelOptions for the knobs.
func adaptiveMultiStart(ctx context.Context, g *core.Graph, cfg Config, opt ParallelOptions) (MultiResult, error) {
	if cfg.Eval == nil {
		return MultiResult{}, fmt.Errorf("partition: parallel search needs Config.Eval")
	}
	if opt.SwapProb > 0 && cfg.SwapProb == 0 {
		cfg.SwapProb = opt.SwapProb
	}
	table, err := candidateTable(g)
	if err != nil {
		return MultiResult{}, err
	}

	nLegs := opt.legs()
	workers := opt.workers()
	if workers > nLegs {
		workers = nLegs
	}
	roundEvals := opt.RoundEvals
	if roundEvals <= 0 {
		roundEvals = 256
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8
	}
	killMargin := opt.KillMargin
	if killMargin == 0 {
		killMargin = 0.25
	}
	respawnBudget := opt.MaxRespawns
	if respawnBudget == 0 {
		respawnBudget = nLegs
	}
	if respawnBudget < 0 {
		respawnBudget = 0
	}

	// The same portfolio split as the static engine; the adaptive salt
	// ranges (1<<20 and up) are disjoint from the static ones so no two
	// leg paths ever share an RNG stream.
	nGreedy := (nLegs + 2) / 3
	nAnneal := (nLegs + 1) / 3
	nRandom := nLegs - nGreedy - nAnneal
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 1000
	}
	strands := make([]*strand, 0, nLegs)
	for r := 0; r < nGreedy; r++ {
		idx := len(strands)
		strands = append(strands, &strand{idx: idx, kind: "greedy", rotate: r,
			lineage: legSeed(cfg.Seed, 1<<20+idx), initSeed: legSeed(cfg.Seed, 1<<20+idx+512), cost: math.Inf(1)})
	}
	for a := 0; a < nAnneal; a++ {
		idx := len(strands)
		strands = append(strands, &strand{idx: idx, kind: "anneal",
			lineage: legSeed(cfg.Seed, 1<<16+a), initSeed: legSeed(cfg.Seed, a), fresh: true, cost: math.Inf(1)})
	}
	for k := 0; k < nRandom; k++ {
		idx := len(strands)
		strands = append(strands, &strand{idx: idx, kind: "random",
			lineage: legSeed(cfg.Seed, 1<<21+idx), lo: k * iters / nRandom, hi: (k + 1) * iters / nRandom, cost: math.Inf(1)})
	}

	board := newIncumbentBoard()
	rep := SearchReport{LegsPlanned: nLegs}
	hookProto := cfg.Eval.Hook
	startT := time.Now()
	remaining := cfg.MaxEvals // 0 = unlimited
	spentTotal := 0
	respawnsUsed := 0
	endedEarly := false

	var incBest *core.Partition
	incCost := math.Inf(1)
	incIdx := -1

	// respawn restarts a strand's trajectory with a perturbed derived
	// seed, keeping its best-so-far for the merge. Returns false when the
	// respawn budget is dry; the caller then retires the strand.
	respawn := func(s *strand) bool {
		if respawnsUsed >= respawnBudget {
			return false
		}
		respawnsUsed++
		rep.LegsRespawned++
		s.respawns++
		s.kind = "anneal"
		s.lineage = legSeed(cfg.Seed, 1<<22+s.idx*257+s.respawns)
		s.initSeed = legSeed(s.lineage, 1)
		if opt.Share && incBest != nil {
			s.fresh, s.reheat = false, true
		} else {
			s.fresh, s.reheat = true, false
		}
		return true
	}

	for round := 0; round < maxRounds; round++ {
		var live []*strand
		for _, s := range strands {
			if !s.done {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			break
		}
		if cancelled(ctx) {
			endedEarly = true
			break
		}
		if cfg.MaxEvals > 0 && remaining <= 0 {
			endedEarly = true
			break
		}

		// Deal this round's budget: roundEvals per leg, or the remaining
		// global budget split evenly (remainder to lower indices). Greedy
		// constructions under an unlimited budget run uncapped so leg 0
		// stays the canonical Greedy.
		quota := make([]int, len(live))
		chunkHi := make([]int, len(live))
		if cfg.MaxEvals == 0 {
			for i, s := range live {
				if s.kind == "greedy" && !s.started {
					quota[i] = 0
				} else {
					quota[i] = roundEvals
				}
			}
		} else {
			pool := len(live) * roundEvals
			if pool > remaining {
				pool = remaining
			}
			quota = splitBudget(pool, len(live))
		}
		for i, s := range live {
			if s.kind != "random" {
				continue
			}
			chunk := quota[i]
			if chunk == 0 {
				chunk = roundEvals
			} else if chunk < 0 {
				chunk = 0
			}
			chunkHi[i] = s.lo + chunk
			if chunkHi[i] > s.hi {
				chunkHi[i] = s.hi
			}
		}

		type stepOut struct {
			res   Result
			err   error
			panic *PanicRecord
			evals int
		}
		outs := make([]stepOut, len(live))
		reheatFrom := incBest
		jobs := make(chan int)
		var wg sync.WaitGroup
		nw := workers
		if nw > len(live) {
			nw = len(live)
		}
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wcfg := cfg
				wcfg.Eval = cfg.Eval.Clone()
				for i := range jobs {
					s := live[i]
					stepSeed := legSeed(s.lineage, round)
					if hookProto != nil {
						wcfg.Eval.Hook = hookProto.ForLeg(s.idx, stepSeed)
					}
					before := wcfg.Eval.Evals
					res, err := runStrandStep(ctx, wcfg, g, table, s, stepSeed, quota[i], chunkHi[i], roundEvals, reheatFrom, board, &outs[i].panic)
					outs[i].res, outs[i].err = res, err
					outs[i].evals = wcfg.Eval.Evals - before
					if outs[i].panic != nil {
						// The panic may have caught the pooled estimator
						// mid-rebind; discard the clone.
						e := wcfg.Eval.Evals
						wcfg.Eval = cfg.Eval.Clone()
						wcfg.Eval.Evals = e
					}
				}
			}()
		}
		for i := range live {
			jobs <- i
		}
		close(jobs)
		wg.Wait()

		// Barrier: commit step outcomes in leg order.
		for i, s := range live {
			o := outs[i]
			s.started = true
			s.evals += o.evals
			spentTotal += o.evals
			if cfg.MaxEvals > 0 {
				remaining -= o.evals
			}
			switch {
			case o.panic != nil:
				rep.Panics = append(rep.Panics, *o.panic)
				if !respawn(s) {
					s.done, s.failed = true, true
				}
			case o.err != nil:
				rep.Errors = append(rep.Errors, LegError{Leg: s.idx, Kind: s.kind, Err: o.err})
				if !respawn(s) {
					s.done, s.failed = true, true
				}
			default:
				if o.res.Best != nil && o.res.Cost < s.cost {
					s.best, s.cost = o.res.Best, o.res.Cost
				}
				s.fresh, s.reheat = false, false
				if s.kind == "random" {
					s.lo = chunkHi[i]
					if s.lo >= s.hi {
						s.done = true
					}
				}
			}
		}

		// Incumbent: the deterministic strand minimum, ties to the lower
		// index — the same value the board converged to mid-round.
		incIdx = -1
		for _, s := range strands {
			if s.best != nil && (incIdx < 0 || s.cost < incCost) {
				incIdx, incCost, incBest = s.idx, s.cost, s.best
			}
		}
		board.publish(incCost)
		rep.Rounds++
		rep.Curve = append(rep.Curve, CurvePoint{
			Round: rep.Rounds, Evals: spentTotal, BestCost: incCost,
			ElapsedMs: float64(time.Since(startT).Microseconds()) / 1000,
		})

		// Kills: strands lagging the incumbent by more than the margin.
		if killMargin > 0 && incIdx >= 0 {
			scale := math.Abs(incCost)
			if scale < 1e-9 {
				scale = 1e-9
			}
			for _, s := range strands {
				if s.done || s.idx == incIdx || s.best == nil {
					continue
				}
				if s.cost-incCost > killMargin*scale {
					rep.LegsKilled++
					if !respawn(s) {
						s.done = true
					}
				}
			}
		}

		// Sharing: schedule lagging strands to reheat from the incumbent.
		if opt.Share && incBest != nil {
			for _, s := range strands {
				if !s.done && s.kind != "random" && !s.fresh && !s.reheat && s.cost > incCost {
					s.reheat = true
				}
			}
		}
	}
	if cancelled(ctx) {
		endedEarly = true
	}

	// Merge over whatever survives: lowest cost, ties to the lower index —
	// killed strands still contribute their pre-kill best.
	best := -1
	for i, s := range strands {
		if s.best != nil && (best < 0 || s.cost < strands[best].cost) {
			best = i
		}
	}
	rep.Partial = endedEarly
	legs := make([]Result, len(strands))
	for i, s := range strands {
		switch {
		case !s.started:
			rep.LegsSkipped++
		case s.failed:
			// Counted through Panics/Errors, like the static engine.
		case endedEarly && !s.done:
			rep.LegsPartial++
		default:
			rep.LegsCompleted++
		}
		legs[i] = Result{Best: s.best, Cost: s.cost, Evals: s.evals,
			Partial: endedEarly && s.started && !s.done && !s.failed}
	}
	rep.Evals = spentTotal
	if best < 0 {
		if len(rep.Errors) > 0 {
			return MultiResult{Report: rep}, fmt.Errorf("partition: no leg survived; leg %d (%s): %w",
				rep.Errors[0].Leg, rep.Errors[0].Kind, rep.Errors[0].Err)
		}
		if len(rep.Panics) > 0 {
			return MultiResult{Report: rep}, fmt.Errorf("partition: no leg survived; %s", rep.Panics[0])
		}
		return MultiResult{Report: rep}, fmt.Errorf("partition: no leg produced a partition")
	}
	cfg.Eval.Evals += spentTotal
	out := MultiResult{Result: legs[best], BestLeg: best, Legs: legs, Report: rep}
	out.Result.Evals = spentTotal
	out.Result.Partial = rep.Partial
	return out, nil
}

// runStrandStep executes one strand's round step with panic containment.
// quota is the step's evaluation budget (0 = unlimited, negative = an
// already-dry share); chunkHi bounds a random strand's shard advance.
func runStrandStep(ctx context.Context, cfg Config, g *core.Graph, table [][]core.Component,
	s *strand, stepSeed int64, quota, chunkHi, roundEvals int,
	reheatFrom *core.Partition, board *incumbentBoard, rec **PanicRecord) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			*rec = &PanicRecord{Leg: s.idx, Kind: s.kind, Seed: stepSeed, Value: r, Stack: string(debug.Stack())}
			res, err = Result{}, nil
		}
	}()
	if quota < 0 {
		return Result{Cost: math.Inf(1), Partial: true}, nil
	}
	switch {
	case s.kind == "random":
		cfg.MaxEvals = 0 // the chunk bounds are the budget
		res, err = randomShard(ctx, g, cfg, s.lo, chunkHi)
	case s.kind == "greedy" && !s.started:
		cfg.MaxEvals = quota
		res, err = greedyRotated(ctx, g, cfg, s.rotate)
	default:
		// An annealing step: a fresh restart, a reheat from the shared
		// incumbent, or an improvement run from the strand's own best.
		// MaxIters tracks the quota so every step is a complete hot-to-
		// cold schedule — a restart, not a frozen continuation.
		var init *core.Partition
		switch {
		case s.reheat && reheatFrom != nil:
			init = reheatFrom
		case !s.fresh && s.best != nil:
			init = s.best
		default:
			init, err = randomStart(g, table, s.initSeed)
			if err != nil {
				return Result{}, err
			}
		}
		cfg.Seed = stepSeed
		if quota == 0 {
			quota = roundEvals
		}
		cfg.MaxEvals = quota
		cfg.MaxIters = quota - 1
		if cfg.MaxIters < 1 {
			cfg.MaxIters = 1
		}
		res, err = Anneal(ctx, init, cfg)
	}
	if err == nil && res.Best != nil {
		board.publish(res.Cost)
	}
	return res, err
}

package partition

// The multi-leg engine behind MultiStart and ParallelRandom. Each leg is a
// strand with persistent state (its best partition, its seed lineage, its
// shard cursor). Strands advance in rounds: every live strand runs one
// budgeted step on the worker pool, and the strands meet at a barrier
// where all cross-leg decisions happen in leg-index order — the incumbent
// is updated, the anytime curve is sampled, strands lagging the incumbent
// by more than the kill margin are killed and respawned with perturbed
// derived seeds, and (with sharing on) lagging strands are scheduled to
// reheat their next annealing step from the shared incumbent.
//
// With every round option zero the run is a single round with no
// decisions after it: each leg runs to completion under its share of
// MaxEvals, exactly the fire-and-forget multi-start search. The round
// options turn on round-based scheduling.
//
// Determinism: a step is a pure function of (strand state, round) — a
// strand's first step runs with its seed, every later one with
// legSeed(lineage, round), never with anything from scheduling. Because
// strands only read each other's state at barriers, and barriers process
// strands in index order, the whole run is reproducible for a fixed seed
// and leg count at ANY worker count, with sharing on or off. Only the
// curve's ElapsedMs field is wall clock. Faults are contained per step: a
// panicking step is recorded with stack and seed, the strand's pre-fault
// best survives for the merge, and before the final round the strand is
// respawned while the respawn budget (one per leg) lasts.

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"specsyn/internal/core"
)

// strand is one leg's persistent state across rounds.
type strand struct {
	idx      int
	kind     string // current kind: "greedy", "anneal" or "random"
	seed     int64  // seed of the first step, the one that reproduces the leg
	lineage  int64  // later steps run with legSeed(lineage, round)
	initSeed int64  // random-start seed for the next fresh annealing step
	rotate   int    // greedy constructive-order rotation
	lo, hi   int    // random shard cursor (kind "random")

	best     *core.Partition
	cost     float64
	evals    int
	started  bool
	partial  bool // the last step returned Partial, or was skipped
	fresh    bool // next step anneals from a random start
	reheat   bool // next step anneals from the shared incumbent
	done     bool // no further rounds: shard exhausted or terminally failed
	failed   bool // terminal fault
	respawns int
}

// runStrands runs a leg plan; see the file comment for the design and
// ParallelOptions for the knobs. table is needed only by annealing steps.
// An error return happens only when no leg produced a partition at all.
func runStrands(ctx context.Context, g *core.Graph, cfg Config, opt ParallelOptions, table [][]core.Component, strands []*strand) (MultiResult, error) {
	if cfg.Eval == nil {
		return MultiResult{}, fmt.Errorf("partition: parallel search needs Config.Eval")
	}
	nLegs := len(strands)
	for i, s := range strands {
		s.idx, s.cost = i, math.Inf(1)
	}
	workers := min(opt.workers(), nLegs)
	// roundEvals 0 marks the one uncapped round.
	maxRounds, roundEvals, killMargin := 1, 0, 0.0
	if opt.Share || opt.RoundEvals > 0 || opt.MaxRounds > 0 || opt.KillMargin != 0 {
		maxRounds, roundEvals, killMargin = 8, 256, 0.25
		if opt.RoundEvals > 0 {
			roundEvals = opt.RoundEvals
		}
		if opt.MaxRounds > 0 {
			maxRounds = opt.MaxRounds
		}
		if opt.KillMargin != 0 {
			killMargin = opt.KillMargin
		}
	}

	rep := SearchReport{LegsPlanned: nLegs}
	hookProto := cfg.Eval.Hook
	startT := time.Now()
	remaining := cfg.MaxEvals // read only under a budget
	spent := 0
	stopped := false // the budget or the context ended the run early

	var incBest *core.Partition
	incCost := math.Inf(1)
	incIdx := -1

	// respawn restarts a strand's trajectory with a perturbed derived
	// seed, keeping its best-so-far for the merge. Returns false when the
	// respawn budget is dry; the caller then retires the strand.
	respawn := func(s *strand) bool {
		if rep.LegsRespawned >= nLegs {
			return false
		}
		rep.LegsRespawned++
		s.respawns++
		s.kind = "anneal"
		s.lineage = legSeed(cfg.Seed, 1<<22+s.idx*257+s.respawns)
		s.initSeed = legSeed(s.lineage, 1)
		s.reheat = opt.Share && incBest != nil
		s.fresh = !s.reheat
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
		if cancelled(ctx) || (cfg.MaxEvals > 0 && remaining <= 0) {
			stopped = true
			break
		}

		// Deal this round's budget. One uncapped round splits MaxEvals
		// across the legs (0 = unlimited). Round mode gives each leg
		// roundEvals, or splits what is left of MaxEvals if that is less;
		// greedy constructions under an unlimited budget run uncapped so
		// leg 0 stays the canonical Greedy.
		quota := splitBudget(cfg.MaxEvals, len(live))
		if roundEvals > 0 && cfg.MaxEvals > 0 {
			// min(len(live)*roundEvals, remaining), without forming a
			// product that could wrap to 0, which would mean unlimited.
			deal := remaining
			if roundEvals <= remaining/len(live) {
				deal = len(live) * roundEvals
			}
			quota = splitBudget(deal, len(live))
		} else if roundEvals > 0 {
			for i, s := range live {
				if s.kind != "greedy" || s.started {
					quota[i] = roundEvals
				}
			}
		}

		type stepOut struct {
			res     Result
			err     error
			panic   *PanicRecord
			evals   int
			skipped bool
		}
		outs := make([]stepOut, len(live))
		reheatFrom := incBest
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(live)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wcfg := cfg
				wcfg.Eval = cfg.Eval.Clone()
				for i := range jobs {
					o, s := &outs[i], live[i]
					if cancelled(ctx) {
						o.skipped = true
						continue
					}
					seed := s.seed
					if s.started {
						seed = legSeed(s.lineage, round)
					}
					if hookProto != nil {
						wcfg.Eval.Hook = hookProto.ForLeg(s.idx, seed)
					}
					before := wcfg.Eval.Evals
					o.res, o.err = runStrandStep(ctx, wcfg, g, table, s, seed, quota[i], roundEvals, reheatFrom, &o.panic)
					o.evals = wcfg.Eval.Evals - before
					if o.panic != nil {
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

		// Barrier: commit step outcomes in leg order. A fault in the final
		// round retires the strand; earlier ones respawn it.
		final := round == maxRounds-1
		for i, s := range live {
			o := outs[i]
			if o.skipped {
				s.partial = true
				continue
			}
			s.started = true
			s.evals += o.evals
			spent += o.evals
			remaining -= o.evals
			switch {
			case o.panic != nil || o.err != nil:
				if o.panic != nil {
					rep.Panics = append(rep.Panics, *o.panic)
				} else {
					rep.Errors = append(rep.Errors, LegError{Leg: s.idx, Kind: s.kind, Err: o.err})
				}
				if final || !respawn(s) {
					s.done, s.failed = true, true
				}
			default:
				if o.res.Best != nil && (s.best == nil || o.res.Cost < s.cost) {
					s.best, s.cost = o.res.Best, o.res.Cost
				}
				s.partial = o.res.Partial
				s.fresh, s.reheat = false, false
				if s.kind == "random" {
					s.lo += o.res.Evals
					s.done = s.lo >= s.hi
				}
			}
		}

		// Incumbent: the deterministic strand minimum, ties to the lower
		// index.
		incIdx = -1
		for _, s := range strands {
			if s.best != nil && (incIdx < 0 || s.cost < incCost) {
				incIdx, incCost, incBest = s.idx, s.cost, s.best
			}
		}
		rep.Rounds++
		rep.Curve = append(rep.Curve, CurvePoint{
			Round: rep.Rounds, Evals: spent, BestCost: incCost,
			ElapsedMs: float64(time.Since(startT).Microseconds()) / 1000,
		})
		if final {
			break // no decisions after the final barrier
		}

		// Kills: strands lagging the incumbent by more than the margin.
		if killMargin > 0 && incIdx >= 0 {
			scale := max(math.Abs(incCost), 1e-9)
			for _, s := range strands {
				if !s.done && s.idx != incIdx && s.best != nil && s.cost-incCost > killMargin*scale {
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

	// Merge over whatever survives: lowest exact cost, ties to the lower
	// index — killed and failed strands still contribute their pre-fault
	// bests.
	best := -1
	legs := make([]Result, nLegs)
	for i, s := range strands {
		partial := s.started && !s.failed && (s.partial || stopped && !s.done)
		switch {
		case !s.started:
			rep.LegsSkipped++
		case s.failed:
			// Counted through Panics/Errors.
		case partial:
			rep.LegsPartial++
		default:
			rep.LegsCompleted++
		}
		leg, err := exact(cfg.Eval, Result{Best: s.best, Cost: s.cost, Evals: s.evals, Partial: partial}, nil)
		if err != nil {
			return MultiResult{Report: rep}, err
		}
		legs[i] = leg
		if leg.Best != nil && (best < 0 || leg.Cost < legs[best].Cost) {
			best = i
		}
	}
	rep.Evals = spent
	rep.Partial = rep.LegsPartial > 0 || rep.LegsSkipped > 0 || cancelled(ctx)
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
	cfg.Eval.Evals += spent
	out := MultiResult{Result: legs[best], BestLeg: best, Legs: legs, Report: rep}
	out.Result.Evals = spent
	out.Result.Partial = rep.Partial
	return out, nil
}

// runStrandStep executes one strand's step with panic containment. quota
// is the step's evaluation budget (0 = unlimited, -1 = an already-dry
// share, which each algorithm honours as it would for a whole search);
// roundEvals is 0 in the one uncapped round.
func runStrandStep(ctx context.Context, cfg Config, g *core.Graph, table [][]core.Component,
	s *strand, seed int64, quota, roundEvals int, reheatFrom *core.Partition, rec **PanicRecord) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			*rec = &PanicRecord{Leg: s.idx, Kind: s.kind, Seed: seed, Value: r, Stack: string(debug.Stack())}
			res, err = Result{}, nil
		}
	}()
	switch {
	case s.kind == "random":
		hi := s.hi
		if roundEvals > 0 {
			// Round mode: the step covers the next chunk of the shard,
			// and the chunk bounds are its budget.
			if quota == 0 {
				quota = roundEvals
			}
			hi, quota = min(s.lo+max(quota, 0), s.hi), 0
		}
		cfg.MaxEvals = quota
		return randomShard(ctx, g, cfg, s.lo, hi)
	case s.kind == "greedy" && !s.started:
		cfg.MaxEvals = quota
		return greedyRotated(ctx, g, cfg, s.rotate)
	}
	// An annealing step: a fresh restart, a reheat from the shared
	// incumbent, or an improvement run from the strand's own best.
	var init *core.Partition
	switch {
	case s.reheat && reheatFrom != nil:
		init = reheatFrom
	case !s.fresh && s.best != nil:
		init = s.best
	default:
		if init, err = randomStart(g, table, s.initSeed); err != nil {
			return Result{}, err
		}
	}
	cfg.Seed = seed
	if roundEvals > 0 {
		// Round mode: MaxIters tracks the quota so every step is a
		// complete hot-to-cold schedule — a restart, not a frozen
		// continuation.
		if quota == 0 {
			quota = roundEvals
		}
		cfg.MaxIters = max(quota-1, 1)
	}
	cfg.MaxEvals = quota
	return anneal(ctx, init, cfg)
}

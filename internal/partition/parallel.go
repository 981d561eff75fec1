package partition

// This file is the parallel multi-start search engine: the §5 "explore
// thousands of possible designs" loop run as N independent legs on a
// worker pool. A leg is one self-contained search start — a shard of the
// random candidate enumeration, a simulated-annealing restart with its own
// derived seed, or a greedy construction from a rotated node order. Every
// worker owns an Evaluator clone (the evaluator's pooled estimator is not
// goroutine-safe), leg evaluation counts are aggregated atomically, and
// the merge is deterministic: the same seed and leg plan produce the same
// best cost for ANY worker count — ties between legs break toward the
// lower leg index, and random shards are contiguous index ranges, so the
// winner is exactly the candidate a sequential scan would have kept.
//
// The engine is anytime and fault-isolated. Cancelling the context stops
// in-flight legs at their next cooperative check and skips legs that have
// not started; the merge then runs over whatever the surviving legs
// produced, and the SearchReport says exactly how much of the plan ran. A
// leg that panics — a bug, or an injected fault — is captured with its
// stack and derived seed, recorded in the report, and the remaining legs
// keep running on a fresh evaluator clone; the deterministic
// lowest-leg-index merge is preserved over the survivors.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"specsyn/internal/core"
)

// ParallelOptions sizes the worker pool and the leg plan, and opts in to
// the adaptive portfolio orchestrator (see portfolio.go). All adaptive
// knobs default to off/zero, which keeps MultiStart bit-identical to the
// static engine.
type ParallelOptions struct {
	// Workers is the number of concurrent goroutines; 0 means GOMAXPROCS.
	// The worker count affects only scheduling, never the result.
	Workers int
	// Legs is the number of independent search starts; 0 means Workers.
	Legs int

	// Adaptive turns MultiStart into the round-based portfolio
	// orchestrator: legs run in eval-budget rounds against a lock-free
	// incumbent board, laggards are killed and respawned with perturbed
	// derived seeds, and the report carries the anytime curve. The result
	// is still deterministic for a fixed seed and leg count at any worker
	// count — all cross-leg decisions happen at round barriers in leg
	// order. Off by default: the static engine runs unchanged.
	Adaptive bool
	// Share lets adaptive improvement rounds reheat from the shared
	// incumbent instead of each leg's own best (implies Adaptive). With
	// sharing on, a run is reproducible at a fixed seed and leg count.
	Share bool
	// RoundEvals is the per-leg evaluation budget of one adaptive round;
	// 0 means 256.
	RoundEvals int
	// MaxRounds bounds the adaptive rounds; 0 means 8.
	MaxRounds int
	// KillMargin is the relative cost lag over the incumbent that kills a
	// leg at a round barrier; 0 means 0.25, negative disables killing.
	KillMargin float64
	// MaxRespawns bounds the total respawns across the run; 0 means one
	// per leg, negative disables respawning.
	MaxRespawns int
	// SwapProb is copied into Config.SwapProb for the portfolio's anneal
	// legs, enabling pair-swap proposals (see Config.SwapProb).
	SwapProb float64
}

func (o ParallelOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o ParallelOptions) legs() int {
	if o.Legs > 0 {
		return o.Legs
	}
	return o.workers()
}

// PanicRecord captures one contained leg panic: everything needed to
// reproduce the crash deterministically (the leg's kind and derived seed)
// plus the recovered value and the stack at the point of the panic.
type PanicRecord struct {
	Leg   int    // leg index
	Kind  string // "greedy", "anneal" or "random"
	Seed  int64  // the leg's derived seed — rerun with it to reproduce
	Value any    // the recovered panic value
	Stack string // goroutine stack at recovery
}

func (p PanicRecord) String() string {
	return fmt.Sprintf("leg %d (%s, seed %d) panicked: %v", p.Leg, p.Kind, p.Seed, p.Value)
}

// LegError is one leg's terminal error, preserved by leg index so a
// deterministic run reports errors deterministically.
type LegError struct {
	Leg  int
	Kind string
	Err  error
}

// SearchReport is the structured account of a multi-leg run: how much of
// the plan executed, what failed, and whether the merged result is partial.
// It is always populated, even on fully successful runs, so callers can
// log evaluation counts without special-casing.
type SearchReport struct {
	LegsPlanned   int // legs in the plan
	LegsCompleted int // legs that ran to a non-partial, non-failed finish
	LegsPartial   int // legs stopped early by cancellation or budget
	LegsSkipped   int // legs never started (context cancelled first)
	Evals         int // total cost evaluations across all legs, failed ones included

	// Partial is true when the merged result reflects less than the full
	// plan: the context fired, a budget ran out, or legs were skipped.
	// Failed legs (panics, errors) do NOT set Partial — the surviving
	// portfolio still ran to completion.
	Partial bool

	Panics []PanicRecord // contained panics, ordered by leg index
	Errors []LegError    // leg errors, ordered by leg index

	// Adaptive-orchestrator accounting; all zero for the static engine.
	Rounds        int          // round barriers executed
	LegsKilled    int          // legs killed for lagging the incumbent
	LegsRespawned int          // legs respawned (after kills or contained faults)
	Curve         []CurvePoint // incumbent trajectory, one point per round
}

// CurvePoint is one sample of an adaptive run's anytime curve: the
// incumbent cost at a round barrier. Evals is deterministic; ElapsedMs is
// wall clock and varies run to run.
type CurvePoint struct {
	Round     int     `json:"round"`
	Evals     int     `json:"evals"`
	BestCost  float64 `json:"best_cost"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (r SearchReport) String() string {
	s := fmt.Sprintf("%d/%d legs completed, %d evals", r.LegsCompleted, r.LegsPlanned, r.Evals)
	if r.LegsPartial > 0 {
		s += fmt.Sprintf(", %d partial", r.LegsPartial)
	}
	if r.LegsSkipped > 0 {
		s += fmt.Sprintf(", %d skipped", r.LegsSkipped)
	}
	if r.Rounds > 0 {
		s += fmt.Sprintf(", %d rounds", r.Rounds)
	}
	if r.LegsKilled > 0 {
		s += fmt.Sprintf(", %d killed", r.LegsKilled)
	}
	if r.LegsRespawned > 0 {
		s += fmt.Sprintf(", %d respawned", r.LegsRespawned)
	}
	if len(r.Panics) > 0 {
		s += fmt.Sprintf(", %d panics contained", len(r.Panics))
	}
	if len(r.Errors) > 0 {
		s += fmt.Sprintf(", %d leg errors", len(r.Errors))
	}
	if r.Partial {
		s += " (partial)"
	}
	return s
}

// MultiResult is the merged outcome of a multi-leg parallel run.
type MultiResult struct {
	Result
	BestLeg int          // index of the winning leg
	Legs    []Result     // every leg's own result, indexed by leg
	Report  SearchReport // structured account of the run
}

// legPlan is one scheduled leg: its search closure plus the metadata the
// report needs when the leg fails.
type legPlan struct {
	kind string // "greedy", "anneal" or "random"
	seed int64  // derived seed (or run seed for shards) for reproduction
	run  func(ctx context.Context, cfg Config) (Result, error)
}

// legSeed derives a per-leg seed from the run seed; leg paths are given
// disjoint salt ranges so no two legs share an RNG stream.
func legSeed(seed int64, salt int) int64 {
	return int64(mix64(uint64(seed) ^ (0x9E3779B97F4A7C15 * uint64(salt+1))))
}

// runLegs executes the legs on a pool of workers and merges their results.
// cfg.Eval is cloned once per worker; the prototype evaluator is only
// read, then credited with the aggregated evaluation count at the end.
// Panicking legs are contained: the panic is recorded (with stack and
// seed) and the worker continues with a fresh evaluator clone, since a
// panic may have left the pooled estimator mid-rebind. An error return
// happens only when no leg produced a partition at all.
func runLegs(ctx context.Context, cfg Config, plans []legPlan, workers int) (MultiResult, error) {
	if cfg.Eval == nil {
		return MultiResult{}, fmt.Errorf("partition: parallel search needs Config.Eval")
	}
	if len(plans) == 0 {
		return MultiResult{}, fmt.Errorf("partition: parallel search needs at least one leg")
	}
	if workers > len(plans) {
		workers = len(plans)
	}

	results := make([]Result, len(plans))
	errs := make([]error, len(plans))
	panics := make([]*PanicRecord, len(plans))
	skipped := make([]bool, len(plans))
	hookProto := cfg.Eval.Hook
	var evals atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := cfg
			wcfg.Eval = cfg.Eval.Clone()
			for i := range jobs {
				if cancelled(ctx) {
					skipped[i] = true
					continue
				}
				if hookProto != nil {
					wcfg.Eval.Hook = hookProto.ForLeg(i, plans[i].seed)
				}
				before := wcfg.Eval.Evals
				res, err := runOneLeg(ctx, wcfg, i, plans[i], &panics[i])
				results[i], errs[i] = res, err
				evals.Add(int64(wcfg.Eval.Evals - before))
				if panics[i] != nil {
					// The panic may have interrupted the pooled estimator
					// mid-rebind; discard the clone rather than trust it.
					e := wcfg.Eval.Evals
					wcfg.Eval = cfg.Eval.Clone()
					wcfg.Eval.Evals = e
				}
			}
		}()
	}
	for i := range plans {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Merge deterministically over the surviving legs: lowest cost, ties
	// to the lower leg index. Failed and skipped legs contribute nothing.
	rep := SearchReport{LegsPlanned: len(plans), Evals: int(evals.Load())}
	best := -1
	for i, r := range results {
		switch {
		case skipped[i]:
			rep.LegsSkipped++
			continue
		case panics[i] != nil:
			rep.Panics = append(rep.Panics, *panics[i])
			continue
		case errs[i] != nil:
			rep.Errors = append(rep.Errors, LegError{Leg: i, Kind: plans[i].kind, Err: errs[i]})
			continue
		case r.Partial:
			rep.LegsPartial++
		default:
			rep.LegsCompleted++
		}
		if r.Best == nil {
			continue // empty leg (e.g. a zero-width random shard)
		}
		if best < 0 || r.Cost < results[best].Cost {
			best = i
		}
	}
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
	cfg.Eval.Evals += rep.Evals
	out := MultiResult{Result: results[best], BestLeg: best, Legs: results, Report: rep}
	out.Result.Evals = rep.Evals
	out.Result.Partial = rep.Partial
	return out, nil
}

// runOneLeg runs a single leg with panic containment: a panic anywhere in
// the leg (evaluator, estimator, injected fault) is recovered, recorded
// with the leg's metadata and stack, and turned into an empty result so
// the merge simply passes over it.
func runOneLeg(ctx context.Context, cfg Config, leg int, p legPlan, rec **PanicRecord) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			*rec = &PanicRecord{Leg: leg, Kind: p.kind, Seed: p.seed, Value: r, Stack: string(debug.Stack())}
			res, err = Result{}, nil
		}
	}()
	return p.run(ctx, cfg)
}

// splitBudget deals cfg.MaxEvals out to nLegs legs — evenly, remainder to
// the lower indices — so a budgeted parallel run is deterministic for any
// worker count. With no budget every quota is 0 (unlimited); under a
// budget a leg whose share rounds to nothing gets -1, the "already
// exhausted" sentinel, so it cannot silently run unbounded.
func splitBudget(maxEvals, nLegs int) []int {
	quota := make([]int, nLegs)
	if maxEvals <= 0 {
		return quota
	}
	base, rem := maxEvals/nLegs, maxEvals%nLegs
	for i := range quota {
		quota[i] = base
		if i < rem {
			quota[i]++
		}
		if quota[i] == 0 {
			quota[i] = -1
		}
	}
	return quota
}

// ParallelRandom is Random with its candidate enumeration sharded across
// legs: leg k evaluates the contiguous index range [k·iters/legs,
// (k+1)·iters/legs) of the same per-candidate-seeded enumeration Random
// walks sequentially. Best cost and best partition are therefore identical
// to Random's for every worker and leg count. A MaxEvals budget clamps
// the enumeration to its first MaxEvals candidates — again exactly the
// prefix a budgeted sequential Random would evaluate.
func ParallelRandom(ctx context.Context, g *core.Graph, cfg Config, opt ParallelOptions) (MultiResult, error) {
	iters := cfg.MaxIters
	if iters <= 0 {
		iters = 1000
	}
	clamped := false
	if cfg.MaxEvals > 0 && cfg.MaxEvals < iters {
		iters, clamped = cfg.MaxEvals, true
	}
	nLegs := opt.legs()
	plans := make([]legPlan, 0, nLegs)
	for k := 0; k < nLegs; k++ {
		lo, hi := k*iters/nLegs, (k+1)*iters/nLegs
		plans = append(plans, legPlan{kind: "random", seed: cfg.Seed,
			run: func(ctx context.Context, c Config) (Result, error) {
				c.MaxEvals = 0 // the shard bounds are the budget
				return randomShard(ctx, g, c, lo, hi)
			}})
	}
	out, err := runLegs(ctx, cfg, plans, opt.workers())
	if err == nil && clamped {
		out.Result.Partial = true
		out.Report.Partial = true
	}
	return out, err
}

// MultiStart runs a mixed portfolio of legs — greedy constructions from
// rotated node orders, annealing restarts from random starts with derived
// seeds, and random sampling shards — and returns the best. Leg 0 is
// always the canonical greedy construction, so a 1-leg MultiStart equals
// Greedy exactly. A MaxEvals budget is dealt out across the legs evenly
// (remainder to the lower indices), keeping budgeted runs deterministic.
//
// With opt.Adaptive (or opt.Share) set the same portfolio runs under the
// round-based adaptive orchestrator instead — see adaptiveMultiStart.
func MultiStart(ctx context.Context, g *core.Graph, cfg Config, opt ParallelOptions) (MultiResult, error) {
	if opt.Adaptive || opt.Share {
		return adaptiveMultiStart(ctx, g, cfg, opt)
	}
	nLegs := opt.legs()
	// Portfolio split: greedy gets the first share (rounded up), then
	// anneal restarts, then random shards.
	nGreedy := (nLegs + 2) / 3
	nAnneal := (nLegs + 1) / 3
	nRandom := nLegs - nGreedy - nAnneal

	table, err := candidateTable(g)
	if err != nil {
		return MultiResult{}, err
	}

	quota := splitBudget(cfg.MaxEvals, nLegs)
	plans := make([]legPlan, 0, nLegs)
	for r := 0; r < nGreedy; r++ {
		rotate := r
		q := quota[len(plans)]
		plans = append(plans, legPlan{kind: "greedy", seed: cfg.Seed,
			run: func(ctx context.Context, c Config) (Result, error) {
				c.MaxEvals = q
				return greedyRotated(ctx, g, c, rotate)
			}})
	}
	for a := 0; a < nAnneal; a++ {
		initSeed := legSeed(cfg.Seed, a)
		runSeed := legSeed(cfg.Seed, 1<<16+a)
		q := quota[len(plans)]
		plans = append(plans, legPlan{kind: "anneal", seed: runSeed,
			run: func(ctx context.Context, c Config) (Result, error) {
				init, err := randomStart(g, table, initSeed)
				if err != nil {
					return Result{}, err
				}
				c.Seed = runSeed
				c.MaxEvals = q
				return Anneal(ctx, init, c)
			}})
	}
	if nRandom > 0 {
		iters := cfg.MaxIters
		if iters <= 0 {
			iters = 1000
		}
		for k := 0; k < nRandom; k++ {
			lo, hi := k*iters/nRandom, (k+1)*iters/nRandom
			q := quota[len(plans)]
			plans = append(plans, legPlan{kind: "random", seed: cfg.Seed,
				run: func(ctx context.Context, c Config) (Result, error) {
					c.MaxEvals = q
					return randomShard(ctx, g, c, lo, hi)
				}})
		}
	}
	return runLegs(ctx, cfg, plans, opt.workers())
}

// randomStart builds one random legal partition from a seed — the starting
// point of an annealing restart leg.
func randomStart(g *core.Graph, table [][]core.Component, seed int64) (*core.Partition, error) {
	s := candidateSampler(seed, 0)
	pt := core.NewPartition(g)
	for j, n := range g.Nodes {
		if err := pt.Assign(n, table[j][s.intn(len(table[j]))]); err != nil {
			return nil, err
		}
	}
	return pt, nil
}

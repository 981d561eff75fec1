package partition

// This file is the API of the parallel multi-start search: the §5 "explore
// thousands of possible designs" loop run as N independent legs on a
// worker pool. A leg is one self-contained search start — a shard of the
// random candidate enumeration, a simulated-annealing restart with its own
// derived seed, or a greedy construction from a rotated node order.
// MultiStart and ParallelRandom only build the leg plan; one engine runs
// every plan (runStrands, portfolio.go). Every worker owns an Evaluator
// clone (the evaluator's pooled estimator is not goroutine-safe), and the
// merge is deterministic: the same seed and leg plan produce the same best
// cost for ANY worker count — ties between legs break toward the lower leg
// index, and random shards are contiguous index ranges, so the winner is
// exactly the candidate a sequential scan would have kept.
//
// The engine is anytime and fault-isolated. Cancelling the context stops
// in-flight legs at their next cooperative check and skips legs that have
// not started; the merge then runs over whatever the surviving legs
// produced, and the SearchReport says exactly how much of the plan ran. A
// leg that panics — a bug, or an injected fault — is captured with its
// stack and seed, recorded in the report, and the remaining legs keep
// running on a fresh evaluator clone.

import (
	"context"
	"fmt"
	"runtime"

	"specsyn/internal/core"
)

// ParallelOptions sizes the worker pool and the leg plan, and sets the
// round schedule of the multi-leg engine (see portfolio.go). With every
// round option zero the engine runs one round in which each leg runs to
// completion under its share of Config.MaxEvals. Setting any round option
// (Share, RoundEvals, MaxRounds or KillMargin) turns on round-based
// scheduling; the round options left zero then take their defaults.
type ParallelOptions struct {
	// Workers is the number of concurrent goroutines; 0 means GOMAXPROCS.
	// The worker count affects only scheduling, never the result.
	Workers int
	// Legs is the number of independent search starts; 0 means Workers.
	Legs int

	// Share lets improvement rounds reheat from the shared incumbent
	// instead of each leg's own best. With sharing on, a run is still
	// reproducible at a fixed seed and leg count.
	Share bool
	// RoundEvals is the per-leg evaluation budget of one round; 0 means
	// 256 in round mode.
	RoundEvals int
	// MaxRounds bounds the rounds; 0 means 8 in round mode.
	MaxRounds int
	// KillMargin is the relative cost lag over the incumbent that kills a
	// leg at a round barrier; 0 means 0.25 in round mode, negative
	// disables killing.
	KillMargin float64
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

	// Round accounting. A run with every round option zero reports one
	// round, one curve point and no kills or respawns.
	Rounds        int          // round barriers executed
	LegsKilled    int          // legs killed for lagging the incumbent
	LegsRespawned int          // legs respawned (after kills or contained faults)
	Curve         []CurvePoint // incumbent trajectory, one point per round
}

// CurvePoint is one sample of a run's anytime curve: the
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

// legSeed derives a per-leg seed from the run seed; leg paths are given
// disjoint salt ranges so no two legs share an RNG stream.
func legSeed(seed int64, salt int) int64 {
	return int64(mix64(uint64(seed) ^ (0x9E3779B97F4A7C15 * uint64(salt+1))))
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
// prefix a budgeted sequential Random would evaluate. Only Workers and
// Legs are read from opt: the shards always run as one round, so the
// round options cannot split, stop or kill them.
func ParallelRandom(ctx context.Context, g *core.Graph, cfg Config, opt ParallelOptions) (MultiResult, error) {
	iters := cfg.randomIters()
	clamped := cfg.MaxEvals > 0 && cfg.MaxEvals < iters
	if clamped {
		iters = cfg.MaxEvals
	}
	cfg.MaxEvals = 0 // the shard bounds are the budget
	plan := ParallelOptions{Workers: opt.Workers}
	out, err := runStrands(ctx, g, cfg, plan, nil, randomStrands(cfg.Seed, iters, opt.legs()))
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
// The round options in opt turn on round-based scheduling (portfolio.go).
func MultiStart(ctx context.Context, g *core.Graph, cfg Config, opt ParallelOptions) (MultiResult, error) {
	table, err := candidateTable(g)
	if err != nil {
		return MultiResult{}, err
	}
	nLegs := opt.legs()
	// Portfolio split: greedy gets the first share (rounded up), then
	// anneal restarts, then random shards. A strand's first step runs
	// with its seed; the later ones derive theirs from its lineage, whose
	// salt ranges are disjoint per kind.
	nGreedy := (nLegs + 2) / 3
	nAnneal := (nLegs + 1) / 3
	strands := make([]*strand, 0, nLegs)
	for r := 0; r < nGreedy; r++ {
		strands = append(strands, &strand{kind: "greedy", rotate: r, seed: cfg.Seed,
			lineage: legSeed(cfg.Seed, 1<<20+r)})
	}
	for a := 0; a < nAnneal; a++ {
		run := legSeed(cfg.Seed, 1<<16+a)
		strands = append(strands, &strand{kind: "anneal", seed: run, lineage: run,
			initSeed: legSeed(cfg.Seed, a), fresh: true})
	}
	strands = append(strands, randomStrands(cfg.Seed, cfg.randomIters(), nLegs-nGreedy-nAnneal)...)
	return runStrands(ctx, g, cfg, opt, table, strands)
}

// randomStrands deals the candidate indices [0, iters) out as n
// contiguous shards. A random step draws no seed of its own — candidates
// are seeded by index from the run seed — so the run seed is both the
// shard's seed and its lineage.
func randomStrands(seed int64, iters, n int) []*strand {
	out := make([]*strand, n)
	for k := range out {
		out[k] = &strand{kind: "random", seed: seed, lineage: seed, lo: k * iters / n, hi: (k + 1) * iters / n}
	}
	return out
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

package specsyn

// Search requests. Every front end — the partition subcommand, the
// shell's search line, the daemon's /search and /explore bodies — decodes
// into one SearchSpec and runs it with Env.Search, so an algorithm name
// means the same search, with the same defaults and the same bounds,
// wherever it is asked for.

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"specsyn/internal/estimate"
	"specsyn/internal/partition"
)

// Bounds on one search. The engine allocates per leg and per round, so an
// unbounded count could exhaust memory, which recover cannot contain. A
// round's evaluation quota is bounded too, so no request can deal a quota
// that means unlimited.
const (
	LegLimit        = 256
	RoundLimit      = 1024
	RoundEvalsLimit = 1 << 20
)

// algorithms are the presets a SearchSpec may name.
var algorithms = []string{"random", "greedy", "cluster", "gm", "anneal", "exhaustive", "multi", "portfolio"}

// SearchSpec is one partition-search request.
type SearchSpec struct {
	// Algo names the preset; "" means "multi". "gm" and "anneal" start
	// from the greedy result. "random" is sharded over the multi-leg
	// engine when Legs is set, with the same result as the sequential
	// scan. "multi" runs the mixed greedy/anneal/random portfolio, and
	// "portfolio" runs it in rounds with incumbent sharing.
	Algo        string
	Constraints partition.Constraints
	Weights     partition.Weights // zero means partition.DefaultWeights
	Seed        int64
	Iters       int     // iteration budget; 0 = the algorithm's default
	MaxEvals    int     // cost-evaluation budget; 0 = unlimited
	SwapProb    float64 // pair-swap proposal probability of every anneal run
	// ParallelOptions sizes the multi-leg engine and sets its rounds.
	partition.ParallelOptions
}

// Normalize refuses a spec outside the bounds and fills in its defaults;
// a normalized spec normalizes to itself. Legs default to Workers before
// Workers is clamped to GOMAXPROCS, so the clamp changes only scheduling,
// never the result. "portfolio" turns incumbent sharing on and, where
// unset, runs 8 rounds of 256 evaluations per leg.
func (s *SearchSpec) Normalize() error {
	s.Algo = cmp.Or(s.Algo, "multi")
	if !slices.Contains(algorithms, s.Algo) {
		return fmt.Errorf("specsyn: unknown algorithm %q (want %s)", s.Algo, strings.Join(algorithms, ", "))
	}
	names := []string{"legs", "workers", "iters", "max_evals", "round_evals", "max_rounds"}
	for i, v := range []int{s.Legs, s.Workers, s.Iters, s.MaxEvals, s.RoundEvals, s.MaxRounds} {
		if v < 0 {
			return fmt.Errorf("specsyn: %s must not be negative, got %d", names[i], v)
		}
	}
	s.Legs = cmp.Or(s.Legs, s.Workers)
	if s.Legs > LegLimit || s.MaxRounds > RoundLimit || s.RoundEvals > RoundEvalsLimit {
		return fmt.Errorf("specsyn: a search allows at most %d legs, %d rounds and %d round_evals",
			LegLimit, RoundLimit, RoundEvalsLimit)
	}
	if !(s.SwapProb >= 0 && s.SwapProb <= 1) {
		return fmt.Errorf("specsyn: swap_prob must lie in [0, 1], got %v", s.SwapProb)
	}
	if math.IsNaN(s.KillMargin) {
		return fmt.Errorf("specsyn: kill_margin must be a number")
	}
	s.Workers = min(s.Workers, runtime.GOMAXPROCS(0))
	if s.Weights == (partition.Weights{}) {
		s.Weights = partition.DefaultWeights()
	}
	if s.Algo == "portfolio" {
		s.Share = true
		s.RoundEvals = cmp.Or(s.RoundEvals, 256)
		s.MaxRounds = cmp.Or(s.MaxRounds, 8)
	}
	return nil
}

// Flags registers the spec's fields on fs, with the spec's current values
// as the defaults. The partition subcommand and the shell's search line
// parse these same flags.
func (s *SearchSpec) Flags(fs *flag.FlagSet) {
	fs.StringVar(&s.Algo, "algo", s.Algo, "algorithm: "+strings.Join(algorithms, ", "))
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.IntVar(&s.Iters, "iters", s.Iters, "iteration budget (0 = algorithm default)")
	fs.IntVar(&s.MaxEvals, "max-evals", s.MaxEvals, "cost-evaluation budget (0 = unlimited)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "parallel workers (0 = GOMAXPROCS)")
	fs.IntVar(&s.Legs, "legs", s.Legs, fmt.Sprintf("independent search legs, at most %d (0 = workers); shards random", LegLimit))
	fs.BoolVar(&s.Share, "share", s.Share, "share the incumbent across legs; anneal restarts reheat from it (a round option)")
	fs.IntVar(&s.RoundEvals, "round-evals", s.RoundEvals, fmt.Sprintf("evaluations per leg per round, at most %d (a round option; 0 = default)", RoundEvalsLimit))
	fs.IntVar(&s.MaxRounds, "max-rounds", s.MaxRounds, fmt.Sprintf("round cap, at most %d (a round option; 0 = default)", RoundLimit))
	fs.Float64Var(&s.KillMargin, "kill-margin", s.KillMargin, "relative lag that kills a leg after a round (a round option; 0 = default, negative = never)")
	fs.Float64Var(&s.SwapProb, "swap-prob", s.SwapProb, "pair-swap proposal probability for anneal runs (0 = moves only)")
}

// Search normalizes the spec and runs it on the current graph. The
// context bounds the whole run: on cancellation or deadline the search
// returns its best result so far with Partial set. A single-algorithm run
// reports as one leg, with Legs nil. The result is deterministic for a
// given spec, whatever the worker count.
func (e *Env) Search(ctx context.Context, spec SearchSpec) (partition.MultiResult, error) {
	if err := spec.Normalize(); err != nil {
		return partition.MultiResult{}, err
	}
	if e.Graph == nil {
		return partition.MultiResult{}, fmt.Errorf("specsyn: Build first")
	}
	if len(e.Graph.Buses) == 0 {
		return partition.MultiResult{}, fmt.Errorf("specsyn: allocation has no bus")
	}
	ev := partition.NewEvaluator(e.Graph, spec.Constraints, spec.Weights, estimate.Options{})
	if e.depsCache != nil {
		ev.Deps = e.depsCache
	}
	cfg := partition.Config{Eval: ev, Policy: partition.DefaultPolicy(e.Graph), Seed: spec.Seed,
		MaxIters: spec.Iters, MaxEvals: spec.MaxEvals, SwapProb: spec.SwapProb}
	var res partition.Result
	var err error
	switch spec.Algo {
	case "multi", "portfolio":
		return partition.MultiStart(ctx, e.Graph, cfg, spec.ParallelOptions)
	case "random":
		if spec.Legs > 0 {
			return partition.ParallelRandom(ctx, e.Graph, cfg, spec.ParallelOptions)
		}
		res, err = partition.Random(ctx, e.Graph, cfg)
	case "cluster":
		res, err = partition.ClusterGreedy(ctx, e.Graph, cfg)
	case "exhaustive":
		res, err = partition.Exhaustive(ctx, e.Graph, cfg)
	default: // greedy, gm, anneal
		res, err = partition.Greedy(ctx, e.Graph, cfg)
		if err == nil && !res.Partial && spec.Algo == "gm" {
			res, err = partition.GroupMigration(ctx, res.Best, cfg)
		} else if err == nil && !res.Partial && spec.Algo == "anneal" {
			res, err = partition.Anneal(ctx, res.Best, cfg)
		}
	}
	rep := partition.SearchReport{LegsPlanned: 1, LegsCompleted: 1, Evals: res.Evals, Partial: res.Partial}
	if res.Partial {
		rep.LegsCompleted, rep.LegsPartial = 0, 1
	}
	return partition.MultiResult{Result: res, Report: rep}, err
}

// PartitionSearch runs one algorithm and returns its plain result.
// PartitionSearch and PartitionSearchParallel are positional adapters
// over Search that exist because the benchmark module (bench/) compiles
// against them; other code builds a SearchSpec.
func (e *Env) PartitionSearch(ctx context.Context, algo string, cons partition.Constraints, w partition.Weights, seed int64, iters, maxEvals int) (partition.Result, error) {
	res, err := e.Search(ctx, SearchSpec{Algo: algo, Constraints: cons, Weights: w, Seed: seed, Iters: iters, MaxEvals: maxEvals})
	return res.Result, err
}

// PartitionSearchParallel is Search with the engine options given apart.
func (e *Env) PartitionSearchParallel(ctx context.Context, algo string, cons partition.Constraints, w partition.Weights, seed int64, iters, maxEvals int, opt partition.ParallelOptions) (partition.MultiResult, error) {
	return e.Search(ctx, SearchSpec{Algo: algo, Constraints: cons, Weights: w, Seed: seed, Iters: iters, MaxEvals: maxEvals, ParallelOptions: opt})
}

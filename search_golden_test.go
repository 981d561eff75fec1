package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/specsyn"
)

// searchGolden pins what every search returns on two subjects, with no
// constraints and with every cost term active. Costs and temperatures are
// recorded as IEEE bit patterns and mappings as FNV-64a fingerprints, so
// a change to how the searches or the delta evaluator do their work must
// leave each result bit-identical. A key missing from the table fails the
// test and logs the line to add.
var searchGolden = map[string]string{
	"ether/none/random":             "cost=0x3f97caf08f4429fb evals=300 partial=false temp=0x0 map=dcbb8d5746eca901",
	"ether/none/greedy":             "cost=0x3f89a008c820bfba evals=349 partial=false temp=0x0 map=8fd6a78d3f200f65",
	"ether/none/greedy-budget37":    "cost=0x3f8ab876d09d7209 evals=38 partial=true temp=0x0 map=6dffc33d564104b5",
	"ether/none/anneal":             "cost=0x3f91cfc2ee9374f7 evals=1501 partial=false temp=0x3f847ae147ae161d map=782efebee345db7b",
	"ether/none/anneal-swap0.3":     "cost=0x3f9204fc11d7fd5a evals=1501 partial=false temp=0x3f847ae147ae161d map=5046e4f866978707",
	"ether/none/anneal-budget500":   "cost=0x3fa78764e6dcbfc4 evals=500 partial=true temp=0x3fd44904f2e7eb06 map=c542a0a599bcfbeb",
	"ether/none/gm":                 "cost=0x3f71f1ef7f1bcc5f evals=66459 partial=false temp=0x0 map=d3fa428398ff9981",
	"ether/none/multi":              "cost=0x3f89a008c820bfba evals=1900 partial=false temp=0x0 map=8fd6a78d3f200f65 best=0 legs=cb54a797859f54be",
	"ether/none/multi-budget500":    "cost=0x3f89b2012763c809 evals=502 partial=true temp=0x0 map=20a3ce3f168656f5 best=0 legs=84313cdcf81ad02e",
	"ether/none/portfolio":          "cost=0x3f899bb9572aec9d evals=6330 partial=false temp=0x0 map=31b196bdcc7bc3f9 best=0 legs=ee4c1f162af8aa89",
	"ether/all/random":              "cost=0x409499c60d4b38f0 evals=300 partial=false temp=0x0 map=145ff069bc7c2605",
	"ether/all/greedy":              "cost=0x40a8fc2b00745dad evals=349 partial=false temp=0x0 map=a21485d1b4ae1d71",
	"ether/all/greedy-budget37":     "cost=0x40a9434ad2cf972e evals=38 partial=true temp=0x0 map=a9231366f5b022e3",
	"ether/all/anneal":              "cost=0x4092864e974966b0 evals=1501 partial=false temp=0x3f847ae147ae14bb map=150a31c10c7e5103",
	"ether/all/anneal-swap0.3":      "cost=0x4092848e73f15a2a evals=1501 partial=false temp=0x3f847ae147ae14bb map=94af01444bf30887",
	"ether/all/anneal-budget500":    "cost=0x409a4cff9210dbb9 evals=500 partial=true temp=0x4061285a9c557f20 map=15d9c1d56f4864ed",
	"ether/all/gm":                  "cost=0x40927a48317e4888 evals=41185 partial=false temp=0x0 map=bb0fb3f6c1b472bf",
	"ether/all/multi":               "cost=0x4095cd2d07607df3 evals=1900 partial=false temp=0x0 map=9bfe38cb549971c7 best=2 legs=66a451ae7a4d5a51",
	"ether/all/multi-budget500":     "cost=0x409ee9e176f10da9 evals=502 partial=true temp=0x0 map=fdf21a143701a5ad best=4 legs=7747ef00e1ad0184",
	"ether/all/portfolio":           "cost=0x4092900db5fe8526 evals=6330 partial=false temp=0x0 map=754b626b49817477 best=4 legs=f51be1f2cc16f843",
	"syn-p32/none/random":           "cost=0x3fa3802dc93b24b3 evals=300 partial=false temp=0x0 map=09cda9a3647cdcd6",
	"syn-p32/none/greedy":           "cost=0x3f7b62e4fe459713 evals=671 partial=false temp=0x0 map=5da2c3912cad9506",
	"syn-p32/none/greedy-budget37":  "cost=0x3fdb5a1c97d80ef4 evals=38 partial=true temp=0x0 map=8ffe5d93ad412d2e",
	"syn-p32/none/anneal":           "cost=0x3fa4c6933ed02163 evals=1501 partial=false temp=0x3f847ae147ae161d map=40ba8cc98b671344",
	"syn-p32/none/anneal-swap0.3":   "cost=0x3fa2d959e1e89ed9 evals=1501 partial=false temp=0x3f847ae147ae161d map=0b1de2714490c6a0",
	"syn-p32/none/anneal-budget500": "cost=0x3fa998b3700984f4 evals=500 partial=true temp=0x3fd44904f2e7eb06 map=3bac1fc61444953a",
	"syn-p32/none/gm":               "cost=0x0 evals=112561 partial=false temp=0x0 map=1e35460661646af2",
	"syn-p32/none/multi":            "cost=0x3f7b62e4fe459713 evals=2544 partial=false temp=0x0 map=5da2c3912cad9506 best=0 legs=423a66ebba725dd3",
	"syn-p32/none/multi-budget500":  "cost=0x3fa21449b4406c0a evals=502 partial=true temp=0x0 map=0521ca724595885e best=4 legs=336933027ddeb146",
	"syn-p32/none/portfolio":        "cost=0x3f7b48415e303cb8 evals=6974 partial=false temp=0x0 map=fa6f8a42cd64ef94 best=0 legs=11cdce9be6be68b1",
	"syn-p32/all/random":            "cost=0x40a0b971e8f7d62c evals=300 partial=false temp=0x0 map=a2e089689f2f215e",
	"syn-p32/all/greedy":            "cost=0x4094d39ae2a7af35 evals=671 partial=false temp=0x0 map=a9908e89dc22fb06",
	"syn-p32/all/greedy-budget37":   "cost=0x409a1b912572112e evals=38 partial=true temp=0x0 map=6158c16b89e1c92e",
	"syn-p32/all/anneal":            "cost=0x409596a093520d5b evals=1501 partial=false temp=0x3f847ae147ae12e2 map=992d01746641d9a0",
	"syn-p32/all/anneal-swap0.3":    "cost=0x4095c973a7679658 evals=1501 partial=false temp=0x3f847ae147ae12e2 map=e95147c3e124f0e8",
	"syn-p32/all/anneal-budget500":  "cost=0x4099dd4f6bfb5803 evals=500 partial=true temp=0x4054d8b465edf912 map=00c55dbb2b8ce278",
	"syn-p32/all/gm":                "cost=0x4094d498d8240a01 evals=112561 partial=false temp=0x0 map=3f8d08199fa31876",
	"syn-p32/all/multi":             "cost=0x4094d39ae2a7af35 evals=2544 partial=false temp=0x0 map=a9908e89dc22fb06 best=0 legs=1019f88c56bdd4df",
	"syn-p32/all/multi-budget500":   "cost=0x409913e644d6b8b1 evals=502 partial=true temp=0x0 map=84f65e45408dd30e best=1 legs=d0c8d8cb55c27ec3",
	"syn-p32/all/portfolio":         "cost=0x4094d39ae2a7af35 evals=6974 partial=false temp=0x0 map=a9908e89dc22fb06 best=0 legs=c01fd720c3f70df8",
}

// searchGoldenSubject builds a subject with its software processor capped
// at 60% of its all-software size, so the searches have a real trade-off
// to make rather than stopping at cost 0.
func searchGoldenSubject(t *testing.T, name string) *core.Graph {
	t.Helper()
	g := subjectGraph(t, name)
	capSoftware(t, g)
	return g
}

// capSoftware caps g's software processor at 60% of its all-software size.
func capSoftware(t *testing.T, g *core.Graph) {
	t.Helper()
	cpu := g.Procs[0]
	size, err := estimate.New(g, core.AllToProcessor(g, cpu, g.Buses[0]), estimate.Options{}).Size(cpu)
	if err != nil {
		t.Fatal(err)
	}
	cpu.SizeCon = 0.6 * size
}

// mappingPrint fingerprints a partition's node and channel mapping.
func mappingPrint(pt *core.Partition) uint64 {
	h := fnv.New64a()
	if pt == nil {
		return 0
	}
	g := pt.Graph()
	for _, n := range g.Nodes {
		name := "<nil>"
		if c := pt.BvComp(n); c != nil {
			name = c.CompName()
		}
		fmt.Fprintf(h, "%s=%s;", n.Name, name)
	}
	for i, c := range g.Channels {
		name := "<nil>"
		if b := pt.ChanBus(c); b != nil {
			name = b.Name
		}
		fmt.Fprintf(h, "%d=%s;", i, name)
	}
	return h.Sum64()
}

func resultLine(r partition.Result) string {
	return fmt.Sprintf("cost=%#x evals=%d partial=%t temp=%#x map=%016x",
		math.Float64bits(r.Cost), r.Evals, r.Partial, math.Float64bits(r.FinalTemp), mappingPrint(r.Best))
}

// multiLine extends resultLine with a fingerprint of every leg's result
// and of the run's report.
func multiLine(r partition.MultiResult) string {
	h := fnv.New64a()
	for _, l := range r.Legs {
		fmt.Fprintf(h, "%s|", resultLine(l))
	}
	rep := r.Report
	fmt.Fprintf(h, "%d/%d/%d/%d/%d/%t/%d/%d/%d;", rep.LegsPlanned, rep.LegsCompleted, rep.LegsPartial,
		rep.LegsSkipped, rep.Evals, rep.Partial, rep.Rounds, rep.LegsKilled, rep.LegsRespawned)
	for _, p := range rep.Curve {
		fmt.Fprintf(h, "%d:%d:%#x;", p.Round, p.Evals, math.Float64bits(p.BestCost))
	}
	return fmt.Sprintf("%s best=%d legs=%016x", resultLine(r.Result), r.BestLeg, h.Sum64())
}

// checkExactCost fails unless res reports the cost of the partition it
// returns, bit for bit as a fresh evaluator costs it, and that cost is not
// negative.
func checkExactCost(t *testing.T, key string, ev *partition.Evaluator, res partition.Result) {
	t.Helper()
	if res.Best == nil {
		return
	}
	want, err := ev.Cost(res.Best)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if math.Float64bits(res.Cost) != math.Float64bits(want) || res.Cost < 0 {
		t.Errorf("%s: reported cost %v (%#x), but its partition costs %v (%#x)",
			key, res.Cost, math.Float64bits(res.Cost), want, math.Float64bits(want))
	}
}

// checkCheapestLeg fails unless r returns its cheapest leg, ties to the
// lower index, so that the reported cost is also the lowest leg cost.
func checkCheapestLeg(t *testing.T, key string, r partition.MultiResult) {
	t.Helper()
	for i, l := range r.Legs {
		if l.Best != nil && (l.Cost < r.Legs[r.BestLeg].Cost || l.Cost == r.Legs[r.BestLeg].Cost && i < r.BestLeg) {
			t.Errorf("%s: leg %d costs %v, below best leg %d at %v", key, i, l.Cost, r.BestLeg, r.Legs[r.BestLeg].Cost)
		}
	}
	if r.Result.Cost != r.Legs[r.BestLeg].Cost {
		t.Errorf("%s: result cost %v, best leg %d costs %v", key, r.Result.Cost, r.BestLeg, r.Legs[r.BestLeg].Cost)
	}
}

func TestSearchGolden(t *testing.T) {
	ctx := context.Background()
	for _, subject := range []string{"ether", "syn-p32"} {
		for _, consName := range []string{"none", "all"} {
			g := searchGoldenSubject(t, subject)
			cons := partition.Constraints{}
			if consName == "all" {
				cons = deltaSubjectConstraints(g)
			}
			cfg := func(seed int64, iters, maxEvals int) partition.Config {
				ev := partition.NewEvaluator(g, cons, partition.DefaultWeights(), estimate.Options{})
				return partition.Config{Eval: ev, Policy: partition.SingleBus(g.Buses[0]), Seed: seed,
					MaxIters: iters, MaxEvals: maxEvals}
			}
			start := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
			runs := []struct {
				name string
				run  func() (string, partition.Result, error)
			}{
				{"random", func() (string, partition.Result, error) {
					r, err := partition.Random(ctx, g, cfg(7, 300, 0))
					return resultLine(r), r, err
				}},
				{"greedy", func() (string, partition.Result, error) {
					r, err := partition.Greedy(ctx, g, cfg(0, 0, 0))
					return resultLine(r), r, err
				}},
				{"greedy-budget37", func() (string, partition.Result, error) {
					r, err := partition.Greedy(ctx, g, cfg(0, 0, 37))
					return resultLine(r), r, err
				}},
				{"anneal", func() (string, partition.Result, error) {
					r, err := partition.Anneal(ctx, start, cfg(11, 1500, 0))
					return resultLine(r), r, err
				}},
				{"anneal-swap0.3", func() (string, partition.Result, error) {
					c := cfg(11, 1500, 0)
					c.SwapProb = 0.3
					r, err := partition.Anneal(ctx, start, c)
					return resultLine(r), r, err
				}},
				{"anneal-budget500", func() (string, partition.Result, error) {
					r, err := partition.Anneal(ctx, start, cfg(13, 0, 500))
					return resultLine(r), r, err
				}},
				{"gm", func() (string, partition.Result, error) {
					r, err := partition.GroupMigration(ctx, start, cfg(0, 0, 0))
					return resultLine(r), r, err
				}},
				{"multi", func() (string, partition.Result, error) {
					r, err := partition.MultiStart(ctx, g, cfg(5, 400, 0), partition.ParallelOptions{Workers: 2, Legs: 5})
					checkCheapestLeg(t, subject+"/"+consName+"/multi", r)
					return multiLine(r), r.Result, err
				}},
				{"multi-budget500", func() (string, partition.Result, error) {
					r, err := partition.MultiStart(ctx, g, cfg(5, 400, 500), partition.ParallelOptions{Workers: 2, Legs: 5})
					checkCheapestLeg(t, subject+"/"+consName+"/multi-budget500", r)
					return multiLine(r), r.Result, err
				}},
				{"portfolio", func() (string, partition.Result, error) {
					r, err := partition.MultiStart(ctx, g, cfg(5, 0, 0),
						partition.ParallelOptions{Workers: 2, Legs: 6, RoundEvals: 256, MaxRounds: 4, Share: true})
					checkCheapestLeg(t, subject+"/"+consName+"/portfolio", r)
					return multiLine(r), r.Result, err
				}},
			}
			for _, r := range runs {
				key := subject + "/" + consName + "/" + r.name
				got, res, err := r.run()
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				checkExactCost(t, key, partition.NewEvaluator(g, cons, partition.DefaultWeights(), estimate.Options{}), res)
				want, ok := searchGolden[key]
				switch {
				case !ok:
					t.Errorf("no golden line; add:\n\t%q: %q,", key, got)
				case got != want:
					t.Errorf("%s:\n got  %s\n want %s", key, got, want)
				}
			}
		}
	}
}

// TestSearchCostExactCappedVol: every preset of Env.Search on capped vol
// at seed 1 reports the cost of the partition it returns. The gm preset
// used to report -9.6e-20 for a partition that costs 0: the delta
// evaluator's running sums had drifted below zero.
func TestSearchCostExactCappedVol(t *testing.T) {
	for _, algo := range []string{"greedy", "gm", "anneal", "random", "cluster", "multi", "portfolio"} {
		env := loadEnv(t, "vol")
		capSoftware(t, env.Graph)
		spec := specsyn.SearchSpec{Algo: algo, Seed: 1}
		res, err := env.Search(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		checkExactCost(t, "vol/"+algo, partition.NewEvaluator(env.Graph, spec.Constraints, spec.Weights, estimate.Options{}), res.Result)
	}
}

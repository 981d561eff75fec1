// Package alloc implements the allocation task of §1: choosing the set of
// system components — processors, ASICs, memories, buses — that the
// functional objects will be partitioned among. It provides a text
// component-library format, conversion of an allocation into SLIF component
// sets, and a small exhaustive allocation explorer that partitions each
// candidate allocation and ranks them by cost.
package alloc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/synth"
)

// Library is a set of component technologies plus a concrete allocation of
// component instances. File format (one record per line, '#' comments):
//
//	proctype <name> clock <MHz>
//	asictype <name> clock <MHz>
//	memtype  <name> word <bits> access <us>
//	proc <name> <type> [sizecon <v>] [pincon <n>]
//	mem  <name> <type> [sizecon <v>]
//	bus  <name> width <n> ts <us> td <us>
type Library struct {
	Techs []*synth.Tech
	Procs []*core.Processor
	Mems  []*core.Memory
	Buses []*core.Bus
}

// TechByName returns the named technology, or nil.
func (l *Library) TechByName(name string) *synth.Tech {
	return synth.TechByName(l.Techs, name)
}

// Apply installs the library's component instances into the graph. The
// graph must not already have components.
func (l *Library) Apply(g *core.Graph) error {
	if len(g.Procs)+len(g.Mems)+len(g.Buses) > 0 {
		return fmt.Errorf("alloc: graph %q already has components", g.Name)
	}
	for _, p := range l.Procs {
		if l.TechByName(p.TypeName) == nil {
			return fmt.Errorf("alloc: processor %q uses undeclared type %q", p.Name, p.TypeName)
		}
		g.AddProcessor(p)
	}
	for _, m := range l.Mems {
		if l.TechByName(m.TypeName) == nil {
			return fmt.Errorf("alloc: memory %q uses undeclared type %q", m.Name, m.TypeName)
		}
		g.AddMemory(m)
	}
	for _, b := range l.Buses {
		g.AddBus(b)
	}
	return nil
}

// Std returns the default library: one standard processor and one ASIC
// (the paper's Figure 4 "processor-asic architecture"), one memory, and a
// 16-bit system bus that is fast on-component and slower across chips.
func Std() *Library {
	techs := synth.StdTechs()
	return &Library{
		Techs: techs,
		Procs: []*core.Processor{
			{Name: "cpu", TypeName: "proc10"},
			{Name: "asic", TypeName: "asic50", Custom: true},
		},
		Mems:  []*core.Memory{{Name: "ram", TypeName: "sram8"}},
		Buses: []*core.Bus{{Name: "sysbus", BitWidth: 16, TS: 0.05, TD: 0.4}},
	}
}

// Parse reads a library file.
func Parse(r io.Reader) (*Library, error) {
	l := &Library{}
	sc := bufio.NewScanner(r)
	line := 0
	getF := func(f []string, i int) (float64, error) {
		if i >= len(f) {
			return 0, fmt.Errorf("missing field %d", i)
		}
		return strconv.ParseFloat(f[i], 64)
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		f := strings.Fields(text)
		fail := func(err error) (*Library, error) {
			return nil, fmt.Errorf("alloc: line %d: %v", line, err)
		}
		switch f[0] {
		case "proctype", "asictype":
			if len(f) != 4 || f[2] != "clock" {
				return fail(fmt.Errorf("want '%s <name> clock <MHz>'", f[0]))
			}
			mhz, err := getF(f, 3)
			if err != nil {
				return fail(err)
			}
			if f[0] == "proctype" {
				l.Techs = append(l.Techs, synth.GenericProcessor(f[1], mhz))
			} else {
				l.Techs = append(l.Techs, synth.GenericASIC(f[1], mhz))
			}
		case "memtype":
			if len(f) != 6 || f[2] != "word" || f[4] != "access" {
				return fail(fmt.Errorf("want 'memtype <name> word <bits> access <us>'"))
			}
			bits, err1 := strconv.Atoi(f[3])
			acc, err2 := getF(f, 5)
			if err1 != nil || err2 != nil {
				return fail(fmt.Errorf("bad numbers"))
			}
			l.Techs = append(l.Techs, synth.GenericMemory(f[1], bits, acc))
		case "proc":
			if len(f) < 3 {
				return fail(fmt.Errorf("want 'proc <name> <type> ...'"))
			}
			p := &core.Processor{Name: f[1], TypeName: f[2]}
			if t := synth.TechByName(l.Techs, f[2]); t != nil && t.Class == synth.CustomHW {
				p.Custom = true
			}
			for i := 3; i+1 < len(f); i += 2 {
				v, err := getF(f, i+1)
				if err != nil {
					return fail(err)
				}
				switch f[i] {
				case "sizecon":
					p.SizeCon = v
				case "pincon":
					p.PinCon = int(v)
				default:
					return fail(fmt.Errorf("unknown attribute %q", f[i]))
				}
			}
			l.Procs = append(l.Procs, p)
		case "mem":
			if len(f) < 3 {
				return fail(fmt.Errorf("want 'mem <name> <type> ...'"))
			}
			m := &core.Memory{Name: f[1], TypeName: f[2]}
			if len(f) >= 5 && f[3] == "sizecon" {
				v, err := getF(f, 4)
				if err != nil {
					return fail(err)
				}
				m.SizeCon = v
			}
			l.Mems = append(l.Mems, m)
		case "bus":
			if len(f) != 8 || f[2] != "width" || f[4] != "ts" || f[6] != "td" {
				return fail(fmt.Errorf("want 'bus <name> width <n> ts <us> td <us>'"))
			}
			w, err1 := strconv.Atoi(f[3])
			ts, err2 := getF(f, 5)
			td, err3 := getF(f, 7)
			if err1 != nil || err2 != nil || err3 != nil {
				return fail(fmt.Errorf("bad numbers"))
			}
			if w <= 0 {
				return fail(fmt.Errorf("bus %q has non-positive width %d", f[1], w))
			}
			l.Buses = append(l.Buses, &core.Bus{Name: f[1], BitWidth: w, TS: ts, TD: td})
		default:
			return fail(fmt.Errorf("unknown record %q", f[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// Load reads a library file from disk.
func Load(path string) (*Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Candidate is one allocation option for the explorer.
type Candidate struct {
	Name  string
	Procs []*core.Processor
	Mems  []*core.Memory
	Buses []*core.Bus
}

// Outcome is the explorer's result for one candidate allocation.
type Outcome struct {
	Candidate Candidate
	Cost      float64
	Evals     int
	Err       error

	// Partial marks a candidate whose search was cut short (deadline or
	// cancellation): Cost is the best found before the cut, or +Inf for a
	// candidate the sweep never reached (Skipped).
	Partial bool
	// Skipped marks a candidate the sweep was cancelled before starting.
	Skipped bool
	// Report, for parallel exploration, is the partition engine's
	// structured account of the candidate's multi-leg search.
	Report *partition.SearchReport
}

// install clones the base graph and applies one candidate allocation.
func (c Candidate) install(g *core.Graph) *core.Graph {
	ng := g.Clone(false)
	for _, p := range c.Procs {
		cp := *p
		ng.AddProcessor(&cp)
	}
	for _, m := range c.Mems {
		cm := *m
		ng.AddMemory(&cm)
	}
	for _, b := range c.Buses {
		cb := *b
		ng.AddBus(&cb)
	}
	return ng
}

// Explore partitions the design under every candidate allocation (using
// the greedy constructive algorithm followed by group migration) and
// returns outcomes sorted by cost. This is the allocation task driven by
// the estimation speed SLIF provides. Cancelling the context stops the
// in-flight candidate at its next check (yielding a Partial outcome) and
// marks the remaining candidates Skipped — the outcomes for completed
// candidates are always returned.
func Explore(ctx context.Context, g *core.Graph, cands []Candidate, cons partition.Constraints, w partition.Weights) []Outcome {
	return explore(ctx, g, cands, cons, w, func(ng *core.Graph, cfg partition.Config, _ *Outcome) (partition.Result, error) {
		res, err := partition.Greedy(ctx, ng, cfg)
		if err == nil && !res.Partial {
			res, err = partition.GroupMigration(ctx, res.Best, cfg)
		}
		return res, err
	})
}

// ExploreParallel is Explore with each candidate partitioned by the
// parallel multi-start engine instead of a single greedy construction: the
// mixed greedy/anneal/random portfolio runs on opt's worker pool, and the
// winning leg is polished with group migration. Because the portfolio's
// first leg is the canonical greedy construction, each candidate's cost is
// never worse than what a plain greedy start would give. Candidates are
// processed in order, so the ranking is deterministic for a given seed and
// leg plan. Each completed candidate's Outcome carries the engine's
// SearchReport; cancelling the context mid-sweep returns the finished
// candidates' outcomes, a Partial outcome for the interrupted one, and
// Skipped outcomes (cost +Inf) for the rest.
func ExploreParallel(ctx context.Context, g *core.Graph, cands []Candidate, cons partition.Constraints, w partition.Weights, opt partition.ParallelOptions) []Outcome {
	return explore(ctx, g, cands, cons, w, func(ng *core.Graph, cfg partition.Config, out *Outcome) (partition.Result, error) {
		multi, err := partition.MultiStart(ctx, ng, cfg, opt)
		if err != nil {
			return multi.Result, err
		}
		out.Report = &multi.Report
		if multi.Partial {
			return multi.Result, nil
		}
		polished, err := partition.GroupMigration(ctx, multi.Best, cfg)
		if err == nil && polished.Cost < multi.Cost {
			return polished, nil
		}
		return multi.Result, err
	})
}

// explore runs search on every candidate allocation in turn, with the
// bus policy partition.DefaultPolicy picks for it, and ranks the outcomes
// by cost; skipped candidates (cost +Inf) sink to the bottom in their
// original order.
func explore(ctx context.Context, g *core.Graph, cands []Candidate, cons partition.Constraints, w partition.Weights,
	search func(ng *core.Graph, cfg partition.Config, out *Outcome) (partition.Result, error)) []Outcome {
	outcomes := make([]Outcome, 0, len(cands))
	for _, cand := range cands {
		out := Outcome{Candidate: cand, Cost: math.Inf(1)}
		if ctx != nil && ctx.Err() != nil {
			out.Err, out.Partial, out.Skipped = ctx.Err(), true, true
		} else if ng := cand.install(g); len(ng.Buses) == 0 {
			out.Err = fmt.Errorf("alloc: candidate %q has no bus", cand.Name)
		} else {
			ev := partition.NewEvaluator(ng, cons, w, estimate.Options{})
			res, err := search(ng, partition.Config{Eval: ev, Policy: partition.DefaultPolicy(ng), Seed: 1}, &out)
			if err != nil {
				out.Err = err
			} else {
				out.Cost, out.Evals, out.Partial = res.Cost, ev.Evals, res.Partial
			}
		}
		outcomes = append(outcomes, out)
	}
	sort.SliceStable(outcomes, func(i, j int) bool { return outcomes[i].Cost < outcomes[j].Cost })
	return outcomes
}

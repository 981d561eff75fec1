// Command specsyn is the system-design environment CLI: it reads a
// behavioral VHDL specification, builds the annotated SLIF access graph,
// and supports the paper's four system-design tasks — allocation (via a
// component library file), partitioning, transformation and estimation.
//
// Usage:
//
//	specsyn build     -vhd f.vhd [-prob f.prob] [-lib f.lib] [-ov f.ov] [-o out.slif] [-dot out.dot]
//	specsyn build     -slif f.slif [-o out.slif] [-dot out.dot]        read a .slif back
//	specsyn estimate  -vhd f.vhd [...] [-split]         estimate a partition
//	specsyn partition -vhd f.vhd [...] -algo gm [-deadline proc=us] [-seed n] [-iters n] [-timeout d] [-max-evals n] [-legs n] [-share] [-round-evals n]
//	specsyn xform     -vhd f.vhd [...] -inline-all | -merge a,b
//	specsyn simulate  -vhd f.vhd [-steps n] [-seed n] [-prob-out f.prob]
//	specsyn shell     -vhd f.vhd [...]                  interactive session
//
// Every subcommand accepts the same input flags as build. simulate runs
// the behavioral interpreter under a random port stimulus and can write
// the measured branch-probability profile — the paper's "obtained through
// profiling" path.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/interp"
	"specsyn/internal/sem"
	"specsyn/internal/shell"
	"specsyn/internal/specsyn"
	"specsyn/internal/vhdl"
	"specsyn/internal/xform"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "build":
		runBuild(args)
	case "estimate":
		runEstimate(args)
	case "partition":
		runPartition(args)
	case "xform":
		runXform(args)
	case "simulate":
		runSimulate(args)
	case "shell":
		runShell(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: specsyn build|estimate|partition|xform|simulate|shell [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specsyn:", err)
	os.Exit(1)
}

// inputFlags registers the shared input flags on fs and returns a loader.
func inputFlags(fs *flag.FlagSet) func() *specsyn.Env {
	vhd := fs.String("vhd", "", "VHDL specification (required)")
	prob := fs.String("prob", "", "branch probability file")
	lib := fs.String("lib", "", "component library / allocation file (default: built-in std)")
	ov := fs.String("ov", "", "designer weight override file")
	return func() *specsyn.Env {
		if *vhd == "" {
			fmt.Fprintln(os.Stderr, "specsyn: -vhd is required")
			fs.Usage()
			os.Exit(2)
		}
		env := specsyn.New()
		if err := env.LoadVHDLFile(*vhd); err != nil {
			fatal(err)
		}
		if *prob != "" {
			if err := env.LoadProfileFile(*prob); err != nil {
				fatal(err)
			}
		}
		if *lib != "" {
			if err := env.LoadLibraryFile(*lib); err != nil {
				fatal(err)
			}
		}
		if *ov != "" {
			if err := env.LoadOverridesFile(*ov); err != nil {
				fatal(err)
			}
		}
		if err := env.Build(); err != nil {
			fatal(err)
		}
		for _, w := range env.Design.Warnings {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
		return env
	}
}

func runBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	load := inputFlags(fs)
	in := fs.String("slif", "", "read this .slif file in place of -vhd")
	out := fs.String("o", "", "write the SLIF graph to this .slif file")
	dot := fs.String("dot", "", "write a Graphviz rendering to this file (clustered when the graph carries a partition)")
	_ = fs.Parse(args)

	var g *core.Graph
	var pt *core.Partition
	if *in != "" {
		if fs.Lookup("vhd").Value.String() != "" {
			fatal(fmt.Errorf("build takes -vhd or -slif, not both"))
		}
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		g, pt, err = core.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("read SLIF for %s from %s\n", g.Name, *in)
	} else {
		env := load()
		g = env.Graph
		fmt.Printf("built SLIF for %s in %v\n", g.Name, env.BuildTime)
	}
	st := g.Stats()
	fmt.Printf("  %d BV nodes (%d behaviors, %d variables), %d ports, %d channels\n",
		st.BV, len(g.Behaviors()), len(g.Variables()), st.IO, st.Channels)
	fmt.Printf("  allocation: %d processors, %d memories, %d buses\n", st.Procs, st.Mems, st.Buses)

	write := func(path string, w func(*os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := w(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	if *out != "" {
		write(*out, func(f *os.File) error { return core.Write(f, g, pt) })
	}
	if *dot != "" {
		write(*dot, func(f *os.File) error {
			if pt != nil {
				return core.WriteDOTPartition(f, g, pt)
			}
			return core.WriteDOT(f, g)
		})
	}
}

func runEstimate(args []string) {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	load := inputFlags(fs)
	split := fs.Bool("split", false, "move heavy arrays and non-process behaviors to the second processor (if any) before estimating")
	mode := fs.String("mode", "avg", "access-count mode: min, avg or max")
	_ = fs.Parse(args)

	env := load()
	pt, err := env.DefaultPartition()
	if err != nil {
		fatal(err)
	}
	if *split && len(env.Graph.Procs) > 1 {
		second := env.Graph.Procs[1]
		for _, n := range env.Graph.Nodes {
			if _, ok := n.ICT[second.TypeName]; !ok {
				continue
			}
			if (n.IsBehavior() && !n.IsProcess) || n.StorageBits > 2048 {
				if err := pt.Assign(n, second); err != nil {
					fatal(err)
				}
			}
		}
	}
	var opts estimate.Options
	switch *mode {
	case "min":
		opts.Mode = estimate.Min
	case "max":
		opts.Mode = estimate.Max
	case "avg":
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	rep, dur, err := env.Estimate(pt, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("T-slif %v   T-est %v   (%s access counts)\n\n", env.BuildTime, dur, *mode)
	fmt.Print(rep.String())
}

// partitionCmd is the partition subcommand's parsed command line.
type partitionCmd struct {
	load    func() *specsyn.Env
	spec    specsyn.SearchSpec
	timeout time.Duration
}

// parsePartition parses the partition subcommand's flags into a
// normalized search spec; it returns the spec's error. A flag error exits
// with the usage, as in every subcommand.
func parsePartition(args []string) (partitionCmd, error) {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	c := partitionCmd{load: inputFlags(fs), spec: specsyn.SearchSpec{Algo: "gm", Seed: 1}}
	c.spec.Flags(fs)
	fs.DurationVar(&c.timeout, "timeout", 0, "wall-clock bound; on expiry the best partition found so far is kept (0 = none)")
	var deadlines deadlineFlag
	fs.Var(&deadlines, "deadline", "process deadline as name=microseconds (repeatable)")
	_ = fs.Parse(args)
	c.spec.Constraints.Deadline = deadlines.m
	return c, c.spec.Normalize()
}

func runPartition(args []string) {
	c, err := parsePartition(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // the spec's error names the program already
		os.Exit(2)
	}
	env := c.load()

	// Ctrl-C cancels the in-flight search; the engines return their best
	// partition found so far rather than dying, so the report below still
	// prints. Once the search returns, stop() restores default signal
	// handling, so a second Ctrl-C kills the process as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	res, err := env.Search(ctx, c.spec)
	if err != nil {
		fatal(err)
	}
	stop()
	algo, rep := c.spec.Algo, res.Report
	if res.Legs != nil {
		fmt.Printf("%s: %d legs, best from leg %d\n", algo, len(res.Legs), res.BestLeg)
		if rep.Rounds > 1 {
			fmt.Printf("adaptive: %d rounds, %d legs killed, %d respawned\n", rep.Rounds, rep.LegsKilled, rep.LegsRespawned)
		}
		if rep.Partial || len(rep.Panics) > 0 || len(rep.Errors) > 0 {
			fmt.Printf("note: %s\n", rep.String())
		}
	}
	if res.Partial {
		fmt.Println("search interrupted — reporting best partition found so far")
	}
	fmt.Printf("%s: %s\n\n", algo, res.Result)
	fmt.Print(res.Best.String())
	est, _, err := env.Estimate(res.Best, estimate.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(est.String())
}

func runXform(args []string) {
	fs := flag.NewFlagSet("xform", flag.ExitOnError)
	load := inputFlags(fs)
	inlineAll := fs.Bool("inline-all", false, "inline every single-caller procedure")
	merge := fs.String("merge", "", "merge two processes: a,b")
	_ = fs.Parse(args)

	env := load()
	g := env.Graph
	before := g.Stats()
	fmt.Printf("before: %d nodes, %d channels, traffic %.1f bits/iteration\n",
		before.BV, before.Channels, xform.Traffic(g))

	if *inlineAll {
		ng, inlined, err := xform.InlineAll(g)
		if err != nil {
			fatal(err)
		}
		g = ng
		fmt.Printf("inlined: %s\n", strings.Join(inlined, ", "))
	}
	if *merge != "" {
		a, b, ok := strings.Cut(*merge, ",")
		if !ok || strings.Contains(b, ",") {
			fatal(fmt.Errorf("-merge wants a,b"))
		}
		ng, merged, err := xform.MergeProcesses(g, strings.TrimSpace(a), strings.TrimSpace(b), "")
		if err != nil {
			fatal(err)
		}
		g = ng
		fmt.Printf("merged into %s\n", merged)
	}

	after := g.Stats()
	fmt.Printf("after:  %d nodes, %d channels, traffic %.1f bits/iteration\n",
		after.BV, after.Channels, xform.Traffic(g))
}

// deadlineFlag accumulates repeatable name=value pairs.
type deadlineFlag struct{ m map[string]float64 }

func (d *deadlineFlag) String() string { return fmt.Sprint(d.m) }

func (d *deadlineFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=microseconds, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	if d.m == nil {
		d.m = make(map[string]float64)
	}
	d.m[strings.ToLower(name)] = v
	return nil
}

func runSimulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	vhd := fs.String("vhd", "", "VHDL specification (required)")
	steps := fs.Int("steps", 1000, "simulation steps")
	seed := fs.Int64("seed", 1, "stimulus seed")
	probOut := fs.String("prob-out", "", "write the measured branch-probability profile here")
	_ = fs.Parse(args)
	if *vhd == "" {
		fmt.Fprintln(os.Stderr, "specsyn: -vhd is required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*vhd)
	if err != nil {
		fatal(err)
	}
	df, err := vhdl.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	d, err := sem.Elaborate(df)
	if err != nil {
		fatal(err)
	}
	m, err := interp.New(d)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))

	// Random stimulus over the input ports' declared ranges.
	type in struct {
		name     string
		lo, span int64
	}
	var ins []in
	for _, p := range d.Ports {
		if p.Dir == vhdl.DirOut {
			continue
		}
		lo, hi := p.Type.Low, p.Type.High
		if p.Type.IsArray() {
			lo, hi = 0, 1
		}
		ins = append(ins, in{name: p.Name, lo: lo, span: hi - lo + 1})
	}
	stim := func(step int, m *interp.Machine) {
		for _, p := range ins {
			if rng.Intn(3) == 0 { // change a third of the inputs per step
				_ = m.SetPort(p.name, p.lo+rng.Int63n(p.span))
			}
		}
	}
	if err := m.Run(*steps, stim); err != nil {
		fatal(err)
	}

	fmt.Printf("simulated %d steps\n", m.StepCount())
	names := make([]string, 0, len(m.Activations))
	acts := map[string]int64{}
	for b, n := range m.Activations {
		names = append(names, b.UniqueID)
		acts[b.UniqueID] = n
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-20s %8d activations\n", n, acts[n])
	}

	if *probOut != "" {
		prof := m.Profile()
		f, err := os.Create(*probOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := prof.Dump(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote measured profile to %s\n", *probOut)
	}
}

func runShell(args []string) {
	fs := flag.NewFlagSet("shell", flag.ExitOnError)
	load := inputFlags(fs)
	_ = fs.Parse(args)
	env := load()
	sess, err := shell.New(env)
	if err != nil {
		fatal(err)
	}
	// Each search command gets a context cancelled by Ctrl-C, so an
	// interrupted search keeps its best-so-far partition and the shell
	// keeps running.
	sess.NewSearchCtx = func() (context.Context, context.CancelFunc) {
		return signal.NotifyContext(context.Background(), os.Interrupt)
	}
	if err := sess.Run(os.Stdin, os.Stdout); err != nil {
		fatal(err)
	}
}

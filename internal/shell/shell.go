// Package shell is the interactive designer session the paper's abstract
// promises SLIF enables ("truly practical designer interaction"): load a
// specification once, then move objects between components, re-estimate,
// search, and transform — with every estimate returning in microseconds,
// so the edit/estimate loop feels instantaneous.
//
// The interpreter is line-driven over an io.Reader/io.Writer pair, so the
// same engine backs `specsyn shell` and the package's tests.
package shell

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
	"specsyn/internal/specsyn"
	"specsyn/internal/xform"
)

// Session is one interactive design session.
type Session struct {
	Env *specsyn.Env
	Pt  *core.Partition

	// NewSearchCtx, when set, supplies the context bounding each `search`
	// command — the seam through which a front end wires Ctrl-C (SIGINT)
	// into in-flight searches. Nil means context.Background(). A `search`
	// with a trailing timeout argument layers a deadline on top.
	NewSearchCtx func() (context.Context, context.CancelFunc)
	// LastSearch is the result of the last search command that ran.
	LastSearch partition.MultiResult

	history []*core.Partition // undo stack of partition snapshots
	out     io.Writer
}

// New returns a session over an already built environment, starting from
// the all-software partition.
func New(env *specsyn.Env) (*Session, error) {
	pt, err := env.DefaultPartition()
	if err != nil {
		return nil, err
	}
	return &Session{Env: env, Pt: pt}, nil
}

// Run reads commands from r until EOF or "quit", writing responses to w.
// Errors from individual commands are reported and the loop continues; only
// I/O failures abort.
func (s *Session) Run(r io.Reader, w io.Writer) error {
	s.out = w
	sc := bufio.NewScanner(r)
	fmt.Fprintf(w, "specsyn shell — %s loaded (%d nodes, %d channels); 'help' lists commands\n",
		s.Env.Graph.Name, s.Env.Graph.Stats().BV, s.Env.Graph.Stats().Channels)
	s.prompt(w)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			s.prompt(w)
			continue
		}
		fields := strings.Fields(line)
		cmd, args := strings.ToLower(fields[0]), fields[1:]
		if cmd == "quit" || cmd == "exit" {
			fmt.Fprintln(w, "bye")
			return nil
		}
		if err := s.dispatch(cmd, args); err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		s.prompt(w)
	}
	return sc.Err()
}

func (s *Session) prompt(w io.Writer) { fmt.Fprint(w, "> ") }

func (s *Session) dispatch(cmd string, args []string) error {
	switch cmd {
	case "help":
		return s.cmdHelp()
	case "show":
		return s.cmdShow(args)
	case "map":
		return s.cmdMap(args)
	case "mapall":
		return s.cmdMapAll(args)
	case "est", "estimate":
		return s.cmdEstimate()
	case "explain":
		return s.cmdExplain(args)
	case "search":
		return s.cmdSearch(args)
	case "inline":
		return s.cmdInline(args)
	case "merge":
		return s.cmdMerge(args)
	case "save":
		return s.cmdSave(args)
	case "dot":
		return s.cmdDot(args)
	case "reload":
		return s.cmdReload(args)
	case "undo":
		return s.cmdUndo()
	}
	return fmt.Errorf("unknown command %q (try help)", cmd)
}

func (s *Session) cmdHelp() error {
	fmt.Fprint(s.out, `commands:
  show [nodes|comps|chans|part]   inspect the design
  map <node> <component>          move one object (undoable)
  mapall <component>              move everything to one processor
  est                             full size/pin/bitrate/performance report
  explain <behavior>              where that behavior's exec time goes
  search [algo] [legs] [flags] [timeout]
                                  replace the partition with a searched one.
                                  algo: random, greedy, cluster, gm (default),
                                  anneal, exhaustive, multi (parallel
                                  multi-start, legs default to GOMAXPROCS) or
                                  portfolio (multi in rounds with incumbent
                                  sharing and kill/respawn of lagging legs;
                                  prints round counters). flags are the
                                  partition subcommand's -seed (default 1),
                                  -iters, -max-evals, -workers, -legs, -share,
                                  -round-evals, -max-rounds, -kill-margin and
                                  -swap-prob, with its defaults and limits.
                                  An optional Go duration (e.g. 500ms) bounds
                                  the search, keeping the best found so far
  reload <file.vhd>               re-read an edited specification; the SLIF
                                  graph is rebuilt incrementally (only the
                                  edited behaviors and their dependents)
  inline <procedure>              inline a procedure into its single caller
  merge <procA> <procB>           merge two processes
  save <file.slif>                write the graph + partition
  dot <file.dot>                  Graphviz view, clustered by component
  undo                            revert the last map/mapall/search
  quit
`)
	return nil
}

func (s *Session) cmdShow(args []string) error {
	g := s.Env.Graph
	what := "part"
	if len(args) > 0 {
		what = strings.ToLower(args[0])
	}
	switch what {
	case "nodes":
		for _, n := range g.Nodes {
			kind := "var "
			if n.IsProcess {
				kind = "proc"
			} else if n.IsBehavior() {
				kind = "beh "
			}
			comp := "-"
			if c := s.Pt.BvComp(n); c != nil {
				comp = c.CompName()
			}
			fmt.Fprintf(s.out, "  %s %-24s on %s\n", kind, n.Name, comp)
		}
	case "comps":
		for _, c := range g.Components() {
			fmt.Fprintf(s.out, "  %-12s type %-10s %d nodes\n",
				c.CompName(), c.TypeKey(), len(s.Pt.NodesOn(c)))
		}
		for _, b := range g.Buses {
			fmt.Fprintf(s.out, "  %-12s bus, %d wires, ts %g td %g\n", b.Name, b.BitWidth, b.TS, b.TD)
		}
	case "chans":
		for _, c := range g.Channels {
			fmt.Fprintf(s.out, "  %-28s freq %-8.4g bits %d\n", c.Key(), c.AccFreq, c.Bits)
		}
	case "part":
		fmt.Fprint(s.out, s.Pt.String())
	default:
		return fmt.Errorf("show what? (nodes, comps, chans, part)")
	}
	return nil
}

// snapshot pushes the current partition onto the undo stack.
func (s *Session) snapshot() { s.history = append(s.history, s.Pt.Clone()) }

func (s *Session) cmdUndo() error {
	if len(s.history) == 0 {
		return fmt.Errorf("nothing to undo")
	}
	s.Pt = s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	fmt.Fprintln(s.out, "reverted")
	return nil
}

func (s *Session) component(name string) (core.Component, error) {
	g := s.Env.Graph
	if p := g.ProcByName(name); p != nil {
		return p, nil
	}
	if m := g.MemByName(name); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("unknown component %q", name)
}

func (s *Session) cmdMap(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: map <node> <component>")
	}
	g := s.Env.Graph
	n := g.NodeByName(strings.ToLower(args[0]))
	if n == nil {
		return fmt.Errorf("unknown node %q", args[0])
	}
	comp, err := s.component(strings.ToLower(args[1]))
	if err != nil {
		return err
	}
	s.snapshot()
	if err := s.Pt.Assign(n, comp); err != nil {
		s.history = s.history[:len(s.history)-1]
		return err
	}
	fmt.Fprintf(s.out, "%s → %s\n", n.Name, comp.CompName())
	return nil
}

func (s *Session) cmdMapAll(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mapall <processor>")
	}
	p := s.Env.Graph.ProcByName(strings.ToLower(args[0]))
	if p == nil {
		return fmt.Errorf("unknown processor %q", args[0])
	}
	s.snapshot()
	for _, n := range s.Env.Graph.Nodes {
		if err := s.Pt.Assign(n, p); err != nil {
			return err
		}
	}
	fmt.Fprintf(s.out, "everything → %s\n", p.Name)
	return nil
}

func (s *Session) cmdEstimate() error {
	start := time.Now()
	rep, err := estimate.New(s.Env.Graph, s.Pt, estimate.Options{}).Report()
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "estimated in %v\n%s", time.Since(start), rep)
	return nil
}

func (s *Session) cmdExplain(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: explain <behavior>")
	}
	n := s.Env.Graph.NodeByName(strings.ToLower(args[0]))
	if n == nil {
		return fmt.Errorf("unknown node %q", args[0])
	}
	rows, err := estimate.New(s.Env.Graph, s.Pt, estimate.Options{}).Breakdown(n)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, estimate.FormatBreakdown(rows))
	return nil
}

// searchCtx builds the context for one search command: the session's
// provider (or Background) plus an optional deadline.
func (s *Session) searchCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if s.NewSearchCtx != nil {
		ctx, cancel = s.NewSearchCtx()
	}
	if timeout > 0 {
		inner := cancel
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		cancel = func() { tcancel(); inner() }
	}
	return ctx, cancel
}

func (s *Session) cmdSearch(args []string) error {
	// A trailing Go duration bounds the search ("search gm 100ms",
	// "search multi 8 1s"); the best-so-far partition is kept either way.
	var timeout time.Duration
	if len(args) > 0 {
		if d, err := time.ParseDuration(args[len(args)-1]); err == nil && d > 0 {
			timeout = d
			args = args[:len(args)-1]
		}
	}
	// The partition subcommand's search flags; an algorithm and a bare
	// leg count may come first.
	spec := specsyn.SearchSpec{Algo: "gm", Seed: 1}
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec.Flags(fs)
	err := fs.Parse(args)
	for _, name := range []string{"algo", "legs"} {
		if err == nil && fs.NArg() > 0 {
			if err = fs.Set(name, strings.ToLower(fs.Arg(0))); err == nil {
				err = fs.Parse(fs.Args()[1:])
			}
		}
	}
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected %q", fs.Arg(0))
	}
	if err == nil {
		err = spec.Normalize()
	}
	if err != nil {
		return fmt.Errorf("usage: search %s [legs] [flags] [timeout]: %w", spec.Algo, err)
	}
	ctx, cancel := s.searchCtx(timeout)
	defer cancel()
	res, err := s.Env.Search(ctx, spec)
	if err != nil {
		return err
	}
	s.snapshot()
	s.Pt, s.LastSearch = res.Best, res
	fmt.Fprintf(s.out, "%s: %s", spec.Algo, res.Result)
	if res.Legs != nil {
		fmt.Fprintf(s.out, " (%d legs, best from leg %d)", len(res.Legs), res.BestLeg)
	}
	fmt.Fprintln(s.out)
	if rep := res.Report; rep.Rounds > 1 {
		fmt.Fprintf(s.out, "adaptive: %d rounds, %d legs killed, %d respawned\n",
			rep.Rounds, rep.LegsKilled, rep.LegsRespawned)
	}
	if res.Legs != nil && res.Report.Partial {
		fmt.Fprintf(s.out, "note: search interrupted — %s\n", res.Report.String())
	}
	return nil
}

func (s *Session) cmdInline(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: inline <procedure>")
	}
	g := s.Env.Graph
	callee := g.NodeByName(strings.ToLower(args[0]))
	if callee == nil {
		return fmt.Errorf("unknown node %q", args[0])
	}
	callers := g.InChans(callee.Name)
	if len(callers) != 1 {
		return fmt.Errorf("%q has %d callers; inline needs exactly one", callee.Name, len(callers))
	}
	ng, err := xform.Inline(g, callers[0].Src.Name, callee.Name)
	if err != nil {
		return err
	}
	s.Env.Graph = ng
	s.resetPartition()
	fmt.Fprintf(s.out, "inlined %s; partition reset to all-software\n", args[0])
	return nil
}

func (s *Session) cmdMerge(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: merge <procA> <procB>")
	}
	ng, merged, err := xform.MergeProcesses(s.Env.Graph, strings.ToLower(args[0]), strings.ToLower(args[1]), "")
	if err != nil {
		return err
	}
	s.Env.Graph = ng
	s.resetPartition()
	fmt.Fprintf(s.out, "merged into %s; partition reset to all-software\n", merged)
	return nil
}

// resetPartition rebuilds the all-software partition after a new graph
// was installed and clears the undo stack (old snapshots reference the
// old graph's nodes).
func (s *Session) resetPartition() {
	s.Pt = core.AllToProcessor(s.Env.Graph, s.Env.Graph.Procs[0], s.Env.Graph.Buses[0])
	s.history = nil
}

func (s *Session) cmdReload(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: reload <file.vhd>")
	}
	start := time.Now()
	delta, err := s.Env.ReloadFile(args[0])
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Microsecond)
	switch {
	case delta.Empty():
		// Same graph pointer: partition, undo stack and compiled state all
		// stay valid.
		fmt.Fprintf(s.out, "no semantic change (%v); partition kept\n", elapsed)
	case delta.Full:
		s.resetPartition()
		fmt.Fprintf(s.out, "full rebuild in %v (%s); partition reset to all-software\n", elapsed, delta.Reason)
	default:
		s.resetPartition()
		fmt.Fprintf(s.out, "incremental rebuild in %v (%d changed, %d dependent); partition reset to all-software\n",
			elapsed, len(delta.Changed), len(delta.Dependents))
	}
	return nil
}

func (s *Session) cmdSave(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: save <file.slif>")
	}
	f, err := os.Create(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.Write(f, s.Env.Graph, s.Pt); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "wrote %s\n", args[0])
	return nil
}

func (s *Session) cmdDot(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dot <file.dot>")
	}
	f, err := os.Create(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.WriteDOTPartition(f, s.Env.Graph, s.Pt); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "wrote %s\n", args[0])
	return nil
}

// CompNames returns the component names, sorted — used by tab completion
// hooks and tests.
func (s *Session) CompNames() []string {
	var names []string
	for _, c := range s.Env.Graph.Components() {
		names = append(names, c.CompName())
	}
	sort.Strings(names)
	return names
}

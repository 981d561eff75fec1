package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"specsyn/internal/builder"
	"specsyn/internal/core"
	"specsyn/internal/sem"
	"specsyn/internal/specsyn"
	"specsyn/internal/syngen"
	"specsyn/internal/vhdl"
)

// subject is one specification a workload runs on: the paper's four
// examples as checked in under testdata, or a generated syngen design.
type subject struct {
	name string
	src  string // VHDL text
	prob string // branch-probability file text ("" for generated designs)
	lib  string // component library text ("" for generated designs: the default library)
	ov   string // designer overrides text ("" unless fuzzy)

	// Paths for the Env loaders; empty for generated designs.
	probPath, ovPath, libPath string
}

// synConfigs are the generated subjects. Their seed is fixed: the subject
// is part of the workload's definition, not of its seeded inputs. syn-p1024
// uses the lean generator shape so it stresses search scale rather than
// statement-body size.
var synConfigs = map[string]syngen.Config{
	"syn-p32":   {Seed: 7, Processes: 32},
	"syn-p128":  {Seed: 7, Processes: 128},
	"syn-p1024": {Seed: 7, Processes: 1024, ProcsPer: -1, VarsPer: 1, ArraysPer: -1, StmtsPer: 2, SharedSigs: 1},
}

func loadSubject(testdata, name string) (subject, error) {
	if cfg, ok := synConfigs[name]; ok {
		return subject{name: name, src: syngen.Generate(cfg)}, nil
	}
	read := func(file string) (string, error) {
		data, err := os.ReadFile(filepath.Join(testdata, file))
		return string(data), err
	}
	s := subject{name: name, libPath: filepath.Join(testdata, "std.lib")}
	var err error
	if s.src, err = read(name + ".vhd"); err != nil {
		return s, err
	}
	if s.lib, err = read("std.lib"); err != nil {
		return s, err
	}
	s.probPath = filepath.Join(testdata, name+".prob")
	if s.prob, err = read(name + ".prob"); err != nil {
		return s, err
	}
	if name == "fuzzy" {
		s.ovPath = filepath.Join(testdata, "fuzzy.ov")
		if s.ov, err = read("fuzzy.ov"); err != nil {
			return s, err
		}
	}
	return s, nil
}

func loadSubjects(testdata string, names []string) ([]subject, error) {
	out := make([]subject, 0, len(names))
	for _, n := range names {
		s, err := loadSubject(testdata, n)
		if err != nil {
			return nil, fmt.Errorf("subject %s: %w", n, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// newEnv returns a session with the subject's profile, library and
// overrides loaded and src as its source, not yet built.
func (s subject) newEnv(src string) (*specsyn.Env, error) {
	env := specsyn.New()
	env.LoadVHDL(src)
	if s.probPath != "" {
		if err := env.LoadProfileFile(s.probPath); err != nil {
			return nil, err
		}
	}
	if s.libPath != "" {
		if err := env.LoadLibraryFile(s.libPath); err != nil {
			return nil, err
		}
	}
	if s.ovPath != "" {
		if err := env.LoadOverridesFile(s.ovPath); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// buildEnv runs env.Build, or with a tracer the four calls Env.Build makes,
// each in its own span under parent, leaving the session in the same state.
// tokens is the source's token count, recorded on the parse span.
func buildEnv(env *specsyn.Env, parent spanRef, tokens int) error {
	if parent.t == nil {
		return env.Build()
	}
	sp := parent.child("vhdl.Parse")
	df, err := vhdl.Parse(env.Source)
	sp.endCount(int64(tokens))
	if err != nil {
		return err
	}
	sp = parent.child("sem.Elaborate")
	d, err := sem.Elaborate(df)
	sp.end()
	if err != nil {
		return err
	}
	sp = parent.child("builder.Build")
	g, err := builder.Build(d, envOptions(env))
	sp.end()
	if err != nil {
		return err
	}
	sp = parent.child("alloc.Apply")
	err = env.Lib.Apply(g)
	sp.end()
	if err != nil {
		return err
	}
	env.Design, env.Graph = d, g
	return nil
}

// reloadEnv runs env.Reload, or with a tracer the calls Env.Reload makes:
// builder.Frontend of the new source (which warms the front-end cache),
// builder.Rebuild against the session's graph, and alloc.Apply when the
// graph changed, leaving the session in the same state.
func reloadEnv(env *specsyn.Env, src string, parent spanRef) (builder.Delta, error) {
	if parent.t == nil {
		return env.Reload(src)
	}
	sp := parent.child("builder.Frontend")
	_, d, err := builder.Frontend(src)
	sp.end()
	if err != nil {
		return builder.Delta{}, err
	}
	sp = parent.child("builder.Rebuild")
	g, delta, err := builder.Rebuild(env.Graph, env.Source, src, envOptions(env))
	sp.end()
	if err != nil {
		return delta, err
	}
	if !delta.Empty() {
		sp = parent.child("alloc.Apply")
		err = env.Lib.Apply(g)
		sp.end()
		if err != nil {
			return delta, err
		}
		env.Design, env.Graph = d, g
	}
	env.Source = src
	return delta, nil
}

func envOptions(env *specsyn.Env) builder.Options {
	return builder.Options{Profile: env.Prof, Techs: env.Lib.Techs, Overrides: env.Overrides}
}

// compiledEqual compares two graphs by their compiled binary form,
// ignoring allocation components, as cmd/slifbench's rebuild check does.
func compiledEqual(a, b *core.Graph, parent spanRef) (bool, error) {
	ad, err := compiledBytes(a.Clone(false), parent)
	if err != nil {
		return false, err
	}
	bd, err := compiledBytes(b.Clone(false), parent)
	if err != nil {
		return false, err
	}
	return string(ad) == string(bd), nil
}

func compiledBytes(g *core.Graph, parent spanRef) ([]byte, error) {
	sp := parent.child("core.Compile")
	snap, err := core.Compile(g)
	sp.end()
	if err != nil {
		return nil, err
	}
	return snap.MarshalBinary()
}

// tokenCount is the number of tokens the lexer produces for src; the traced
// run divides it by parse time.
func tokenCount(src string) int {
	toks, _ := vhdl.LexAll(src)
	return len(toks)
}

// uniqueSource appends a comment that no other source in the run carries,
// so no front-end cache can serve a parse the workload meant to pay for.
func uniqueSource(src, tag string, n int) string {
	var b strings.Builder
	b.Grow(len(src) + 40)
	b.WriteString(src)
	if !strings.HasSuffix(src, "\n") {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "-- bench %s %d\n", tag, n)
	return b.String()
}

// FuzzCompile lives in an external test package so it can hold the
// compiled snapshot's costs to the pointer-walking estimation path, which
// needs the estimate and partition packages (both import core).
package core_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"specsyn/internal/core"
	"specsyn/internal/estimate"
	"specsyn/internal/partition"
)

// FuzzCompile drives core.Compile with arbitrary .slif streams.
// Invariants on any Read-accepted graph:
//
//  1. Compile never panics, and is deterministic: two compiles agree on
//     error-ness, and on success serialize byte-identically.
//  2. The snapshot cost path (delta evaluator over the compiled arrays)
//     agrees with the pointer-oracle full cost — same error-ness, and
//     costs within 1e-9 — for the everything-on-one-processor mapping.
func FuzzCompile(f *testing.F) {
	var golden bytes.Buffer
	g := core.NewGraph("seed")
	main := &core.Node{Name: "main", Kind: core.BehaviorNode, IsProcess: true}
	v := &core.Node{Name: "v", Kind: core.VariableNode, StorageBits: 64}
	for _, n := range []*core.Node{main, v} {
		if err := g.AddNode(n); err != nil {
			f.Fatal(err)
		}
		n.SetICT("t", 2)
		n.SetSize("t", 10)
	}
	if err := g.AddPort(&core.Port{Name: "p", Dir: core.In, Bits: 8}); err != nil {
		f.Fatal(err)
	}
	for _, c := range []*core.Channel{
		{Src: main, Dst: v, AccFreq: 3, Bits: 16, Tag: core.NoTag},
		{Src: main, Dst: g.PortByName("p"), AccFreq: 1, Bits: 8, Tag: core.NoTag},
	} {
		if err := g.AddChannel(c); err != nil {
			f.Fatal(err)
		}
	}
	g.AddProcessor(&core.Processor{Name: "cpu", TypeName: "t", SizeCon: 4096, PinCon: 40})
	g.AddBus(&core.Bus{Name: "bus", BitWidth: 16, TS: 0.05, TD: 0.4})
	if err := core.Write(&golden, g, nil); err != nil {
		f.Fatal(err)
	}

	f.Add(golden.String())
	f.Add("slif x\nnode a process\n")
	f.Add("slif x\nnode a process\nproc p t std sizecon 1 pincon 2\nproc p t std sizecon 1 pincon 2\n")                                      // duplicate comp name
	f.Add("slif x\nnode a process\nnode b behavior\nchan a b freq 1 min 0 max 2 bits 8 tag -1\nchan b a freq 1 min 0 max 2 bits 8 tag -1\n") // cycle
	f.Add("slif x\nnode a process\nict a t 1\nsize a t 2\nproc p t std sizecon 0 pincon 0\nbus b width 0 ts 1 td 2\n")                       // zero-width bus
	f.Add("slif x\nnode a process\nproc p t std sizecon 1 pincon 2\nmem p t sizecon 8\nbus b width 8 ts 1 td 2\n")                           // proc/mem name clash
	f.Fuzz(func(t *testing.T, src string) {
		g, _, err := core.Read(strings.NewReader(src))
		if err != nil {
			return
		}
		s1, err1 := core.Compile(g)
		s2, err2 := core.Compile(g)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Compile nondeterministic error-ness: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return // e.g. duplicate component names, which Read does not police
		}
		b1, mErr1 := s1.MarshalBinary()
		b2, mErr2 := s2.MarshalBinary()
		if mErr1 != nil || mErr2 != nil {
			t.Fatalf("MarshalBinary: %v / %v", mErr1, mErr2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("two compiles of one graph serialize differently")
		}

		// Cost differential needs somewhere to put everything.
		if len(g.Procs) == 0 || len(g.Buses) == 0 {
			return
		}
		pt := core.AllToProcessor(g, g.Procs[0], g.Buses[0])
		ev := partition.NewEvaluator(g, partition.Constraints{},
			partition.Weights{Size: 1, Pins: 1, Time: 1, Comm: 0.1, Rate: 1}, estimate.Options{})
		want, wantErr := ev.Cost(pt)
		d, dErr := ev.Delta(pt, partition.SingleBus(g.Buses[0]))
		if dErr != nil {
			// Delta refuses what the oracle fails on, plus two inputs the
			// oracle only fails on once something reads an Exectime: a
			// missing ict weight and a non-positive bus width.
			if msg := dErr.Error(); wantErr == nil && !strings.Contains(msg, "ict weight") && !strings.Contains(msg, "bitwidth") {
				t.Fatalf("Delta refused a graph the oracle costs: %v", dErr)
			}
			return
		}
		got, gotErr := d.Cost()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("cost error-ness differs: full=%v delta=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("delta cost %v != full cost %v", got, want)
		}
	})
}

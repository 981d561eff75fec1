package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead drives the .slif reader with arbitrary text. Invariants: no
// panic; an accepted graph passes Graph.Validate (Read refuses whatever a
// build would); and it writes and reads back to the same text.
func FuzzRead(f *testing.F) {
	var golden bytes.Buffer
	g := NewGraph("seed")
	n := &Node{Name: "b", Kind: BehaviorNode, IsProcess: true}
	_ = g.AddNode(n)
	_ = g.AddPort(&Port{Name: "p", Dir: In, Bits: 8})
	_ = g.AddChannel(&Channel{Src: n, Dst: g.PortByName("p"), AccFreq: 1, Bits: 8, Tag: NoTag})
	g.AddProcessor(&Processor{Name: "cpu", TypeName: "t"})
	g.AddBus(&Bus{Name: "bus", BitWidth: 16, TS: 1, TD: 2})
	_ = Write(&golden, g, nil)

	f.Add(golden.String())
	f.Add("")
	f.Add("slif x\n")
	f.Add("slif x\nnode a process\nchan a a freq 1 min 0 max 2 bits 8 tag -1\n")
	f.Add("slif x\nbogus record\n")
	f.Add("# comment\nslif x\nnode \x00 variable\n")
	f.Add("slif x\nslif y\n")                        // duplicate header
	f.Add("slif x\nnode a variable\nnode a process") // duplicate node
	f.Add("slif x\nmap a cpu\nchanmap a b bus\n")    // mappings without objects
	f.Add("slif x\nbus b width 16 ts 1 td 2\nproc p t std sizecon 1 pincon 2\nmem m t sizecon 0\n")
	f.Add("slif x\nnode a variable storage 99999999999999999999\n") // overflowing int
	f.Add("slif x\nbus b width 0 ts 1 td 2\n")                      // zero-width bus (estimator div-by-zero)
	f.Add("slif x\nnode a process\nict a t NaN\n")                  // refused by Validate
	f.Fuzz(func(t *testing.T, src string) {
		g, pt, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v\ninput: %q", err, src)
		}
		// Whatever parsed must serialize and reparse identically.
		var buf bytes.Buffer
		if err := Write(&buf, g, pt); err != nil {
			t.Fatalf("reserialize failed: %v", err)
		}
		text := buf.String()
		g2, pt2, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v\ninput: %q", err, src)
		}
		buf.Reset()
		if err := Write(&buf, g2, pt2); err != nil {
			t.Fatal(err)
		}
		if buf.String() != text {
			t.Fatalf("second write differs:\n%s\nvs\n%s", text, buf.String())
		}
	})
}

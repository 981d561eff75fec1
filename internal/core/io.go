package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the textual .slif exchange format. The format is
// line-based: one record per line, whitespace-separated fields, '#'
// comments. A Write followed by Read reproduces the graph (and optional
// partition) exactly; the encoding is deterministic so .slif files diff
// cleanly.
//
//	slif <name>
//	node <name> behavior|process|variable [storage <bits>]
//	ict <node> <comptype> <val>
//	size <node> <comptype> <val>
//	port <name> in|out|inout <bits>
//	chan <src> <dst> freq <f> min <f> max <f> bits <n> tag <t>
//	proc <name> <comptype> std|custom sizecon <f> pincon <n>
//	mem <name> <comptype> sizecon <f>
//	bus <name> width <n> ts <f> td <f>
//	map <node> <comp>
//	chanmap <src> <dst> <bus>

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Write serializes the graph to w. If pt is non-nil its mappings are
// included as map/chanmap records. The text is assembled in one buffer
// and handed to w in a single Write call.
func Write(w io.Writer, g *Graph, pt *Partition) error {
	t := &slifText{b: make([]byte, 0, 64*(1+len(g.Ports)+4*len(g.Nodes)+len(g.Channels)))}
	t.rec("slif").str(g.Name).end()

	for _, p := range g.Ports {
		t.rec("port").str(p.Name).str(p.Dir.String()).integer(int64(p.Bits)).end()
	}
	var keys []string
	for _, n := range g.Nodes {
		kind := "variable"
		if n.IsBehavior() {
			kind = "behavior"
			if n.IsProcess {
				kind = "process"
			}
		}
		t.rec("node").str(n.Name).str(kind)
		if n.StorageBits != 0 {
			t.str("storage").integer(n.StorageBits)
		}
		t.end()
		keys = sortedKeys(keys, n.ICT)
		for _, k := range keys {
			t.rec("ict").str(n.Name).str(k).float(n.ICT[k]).end()
		}
		keys = sortedKeys(keys, n.Size)
		for _, k := range keys {
			t.rec("size").str(n.Name).str(k).float(n.Size[k]).end()
		}
	}
	for _, c := range g.Channels {
		t.rec("chan").str(c.Src.Name).str(c.Dst.EndpointName()).
			str("freq").float(c.AccFreq).str("min").float(c.AccMin).str("max").float(c.AccMax).
			str("bits").integer(int64(c.Bits)).str("tag").integer(int64(c.Tag)).end()
	}
	for _, p := range g.Procs {
		kind := "std"
		if p.Custom {
			kind = "custom"
		}
		t.rec("proc").str(p.Name).str(p.TypeName).str(kind).
			str("sizecon").float(p.SizeCon).str("pincon").integer(int64(p.PinCon)).end()
	}
	for _, m := range g.Mems {
		t.rec("mem").str(m.Name).str(m.TypeName).str("sizecon").float(m.SizeCon).end()
	}
	for _, b := range g.Buses {
		t.rec("bus").str(b.Name).str("width").integer(int64(b.BitWidth)).
			str("ts").float(b.TS).str("td").float(b.TD).end()
	}
	if pt != nil {
		for _, n := range g.Nodes {
			if c := pt.BvComp(n); c != nil {
				t.rec("map").str(n.Name).str(c.CompName()).end()
			}
		}
		for _, c := range g.Channels {
			if b := pt.ChanBus(c); b != nil {
				t.rec("chanmap").str(c.Src.Name).str(c.Dst.EndpointName()).str(b.Name).end()
			}
		}
	}
	_, err := w.Write(t.b)
	return err
}

// slifText appends .slif records to one buffer: rec starts a record with
// its keyword, each further field is preceded by a space, end closes the
// line. Numbers are formatted as Read parses them: floats in the shortest
// form that round-trips exactly.
type slifText struct{ b []byte }

func (t *slifText) rec(keyword string) *slifText { t.b = append(t.b, keyword...); return t }
func (t *slifText) str(s string) *slifText       { t.b = append(append(t.b, ' '), s...); return t }
func (t *slifText) end()                         { t.b = append(t.b, '\n') }

func (t *slifText) integer(v int64) *slifText {
	t.b = strconv.AppendInt(append(t.b, ' '), v, 10)
	return t
}

func (t *slifText) float(v float64) *slifText {
	t.b = strconv.AppendFloat(append(t.b, ' '), v, 'g', -1, 64)
	return t
}

// sortedKeys returns m's keys in order, reusing keys' storage.
func sortedKeys(keys []string, m map[string]float64) []string {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readMaxRecords caps the number of records one Read accepts, so a
// corrupt or hostile stream cannot grow the graph without bound. A var,
// not a const, so tests can lower it; the default admits far larger
// graphs than any real specification produces.
var readMaxRecords = 4 << 20

// readState accumulates parse state for Read.
type readState struct {
	g       *Graph
	pt      *Partition
	line    int
	records int
}

func (rs *readState) errf(format string, args ...any) error {
	return fmt.Errorf("slif: line %d: %s", rs.line, fmt.Sprintf(format, args...))
}

// Read parses a .slif stream written by Write. The returned partition is
// non-nil only if the stream contained map/chanmap records. The graph is
// built through the validating Add helpers in stream order, and a stream
// whose graph fails Graph.Validate (a negative or non-finite annotation,
// say) is refused as a build would refuse it.
func Read(r io.Reader) (*Graph, *Partition, error) {
	rs := &readState{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		rs.line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if rs.records++; rs.records > readMaxRecords {
			return nil, nil, rs.errf("stream exceeds %d records", readMaxRecords)
		}
		if err := rs.record(f); err != nil {
			return nil, nil, err
		}
	}
	if err := sc.Err(); err != nil {
		// Scanner failures (e.g. a line past the buffer cap) happen after
		// the last complete line.
		return nil, nil, fmt.Errorf("slif: line %d: %v", rs.line+1, err)
	}
	if rs.g == nil {
		return nil, nil, fmt.Errorf("slif: stream has no 'slif' header")
	}
	if err := rs.g.Validate(); err != nil {
		return nil, nil, err
	}
	return rs.g, rs.pt, nil
}

func (rs *readState) record(f []string) error {
	if rs.g == nil && f[0] != "slif" {
		return rs.errf("expected 'slif <name>' header, got %q", f[0])
	}
	switch f[0] {
	case "slif":
		if len(f) != 2 {
			return rs.errf("malformed slif header")
		}
		if rs.g != nil {
			return rs.errf("duplicate slif header (stream already holds graph %q)", rs.g.Name)
		}
		rs.g = NewGraph(f[1])
	case "port":
		if len(f) != 4 {
			return rs.errf("malformed port record")
		}
		dir, err := parseDir(f[2])
		if err != nil {
			return rs.errf("%v", err)
		}
		bits, err := strconv.Atoi(f[3])
		if err != nil {
			return rs.errf("bad port bits %q", f[3])
		}
		if err := rs.g.AddPort(&Port{Name: f[1], Dir: dir, Bits: bits}); err != nil {
			return rs.errf("%v", err)
		}
	case "node":
		if len(f) < 3 {
			return rs.errf("malformed node record")
		}
		n := &Node{Name: f[1]}
		switch f[2] {
		case "behavior":
			n.Kind = BehaviorNode
		case "process":
			n.Kind = BehaviorNode
			n.IsProcess = true
		case "variable":
			n.Kind = VariableNode
		default:
			return rs.errf("bad node kind %q", f[2])
		}
		if len(f) >= 5 && f[3] == "storage" {
			v, err := strconv.ParseInt(f[4], 10, 64)
			if err != nil {
				return rs.errf("bad storage %q", f[4])
			}
			n.StorageBits = v
		}
		if err := rs.g.AddNode(n); err != nil {
			return rs.errf("%v", err)
		}
	case "ict", "size":
		if len(f) != 4 {
			return rs.errf("malformed %s record", f[0])
		}
		n := rs.g.NodeByName(f[1])
		if n == nil {
			return rs.errf("%s for unknown node %q", f[0], f[1])
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return rs.errf("bad %s value %q", f[0], f[3])
		}
		if f[0] == "ict" {
			n.SetICT(f[2], v)
		} else {
			n.SetSize(f[2], v)
		}
	case "chan":
		// chan src dst freq F min F max F bits N tag T
		if len(f) != 13 {
			return rs.errf("malformed chan record")
		}
		src := rs.g.NodeByName(f[1])
		if src == nil {
			return rs.errf("chan with unknown source %q", f[1])
		}
		var dst Endpoint
		if n := rs.g.NodeByName(f[2]); n != nil {
			dst = n
		} else if p := rs.g.PortByName(f[2]); p != nil {
			dst = p
		} else {
			return rs.errf("chan with unknown destination %q", f[2])
		}
		freq, err1 := strconv.ParseFloat(f[4], 64)
		mn, err2 := strconv.ParseFloat(f[6], 64)
		mx, err3 := strconv.ParseFloat(f[8], 64)
		bits, err4 := strconv.Atoi(f[10])
		tag, err5 := strconv.Atoi(f[12])
		for _, err := range []error{err1, err2, err3, err4, err5} {
			if err != nil {
				return rs.errf("bad chan numbers: %v", err)
			}
		}
		c := &Channel{Src: src, Dst: dst, AccFreq: freq, AccMin: mn, AccMax: mx, Bits: bits, Tag: tag}
		if err := rs.g.AddChannel(c); err != nil {
			return rs.errf("%v", err)
		}
	case "proc":
		// proc name type std|custom sizecon F pincon N
		if len(f) != 8 {
			return rs.errf("malformed proc record")
		}
		sc, err1 := strconv.ParseFloat(f[5], 64)
		pc, err2 := strconv.Atoi(f[7])
		if err1 != nil || err2 != nil {
			return rs.errf("bad proc constraints")
		}
		rs.g.AddProcessor(&Processor{Name: f[1], TypeName: f[2], Custom: f[3] == "custom", SizeCon: sc, PinCon: pc})
	case "mem":
		if len(f) != 5 {
			return rs.errf("malformed mem record")
		}
		sc, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return rs.errf("bad mem sizecon %q", f[4])
		}
		rs.g.AddMemory(&Memory{Name: f[1], TypeName: f[2], SizeCon: sc})
	case "bus":
		// bus name width N ts F td F
		if len(f) != 8 {
			return rs.errf("malformed bus record")
		}
		w, err1 := strconv.Atoi(f[3])
		ts, err2 := strconv.ParseFloat(f[5], 64)
		td, err3 := strconv.ParseFloat(f[7], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return rs.errf("bad bus numbers")
		}
		if w <= 0 {
			// A zero width would divide transfer counts by zero deep in the
			// estimator; reject it here with a position instead.
			return rs.errf("bus %q has non-positive width %d", f[1], w)
		}
		rs.g.AddBus(&Bus{Name: f[1], BitWidth: w, TS: ts, TD: td})
	case "map":
		if len(f) != 3 {
			return rs.errf("malformed map record")
		}
		if rs.pt == nil {
			rs.pt = NewPartition(rs.g)
		}
		n := rs.g.NodeByName(f[1])
		if n == nil {
			return rs.errf("map for unknown node %q", f[1])
		}
		var c Component
		if p := rs.g.ProcByName(f[2]); p != nil {
			c = p
		} else if m := rs.g.MemByName(f[2]); m != nil {
			c = m
		} else {
			return rs.errf("map to unknown component %q", f[2])
		}
		if err := rs.pt.Assign(n, c); err != nil {
			return rs.errf("%v", err)
		}
	case "chanmap":
		if len(f) != 4 {
			return rs.errf("malformed chanmap record")
		}
		if rs.pt == nil {
			rs.pt = NewPartition(rs.g)
		}
		ch := rs.g.FindChannel(f[1], f[2])
		if ch == nil {
			return rs.errf("chanmap for unknown channel %s->%s", f[1], f[2])
		}
		b := rs.g.BusByName(f[3])
		if b == nil {
			return rs.errf("chanmap to unknown bus %q", f[3])
		}
		rs.pt.AssignChan(ch, b)
	default:
		return rs.errf("unknown record %q", f[0])
	}
	return nil
}

func parseDir(s string) (PortDir, error) {
	switch s {
	case "in":
		return In, nil
	case "out":
		return Out, nil
	case "inout":
		return InOut, nil
	}
	return In, fmt.Errorf("bad port direction %q", s)
}

// WriteDOT emits the access graph in Graphviz DOT form. Process nodes are
// drawn bold (as in the paper's Figure 2), variables as boxes, ports as
// diamonds; edges are labeled freq/bits.
func WriteDOT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, n := range g.Nodes {
		switch {
		case n.IsProcess:
			fmt.Fprintf(bw, "  %q [shape=ellipse, style=bold];\n", n.Name)
		case n.IsBehavior():
			fmt.Fprintf(bw, "  %q [shape=ellipse];\n", n.Name)
		default:
			fmt.Fprintf(bw, "  %q [shape=box];\n", n.Name)
		}
	}
	for _, p := range g.Ports {
		fmt.Fprintf(bw, "  %q [shape=diamond];\n", p.Name)
	}
	for _, c := range g.Channels {
		fmt.Fprintf(bw, "  %q -> %q [label=\"%s/%d\"];\n",
			c.Src.Name, c.Dst.EndpointName(), fmtF(c.AccFreq), c.Bits)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteDOTPartition renders the access graph with nodes clustered by the
// component the partition maps them to — the picture a designer wants
// after a partitioning step. Ports appear outside every cluster.
func WriteDOTPartition(w io.Writer, g *Graph, pt *Partition) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n  compound=true;\n", g.Name)
	for ci, comp := range g.Components() {
		fmt.Fprintf(bw, "  subgraph cluster_%d {\n    label=%q;\n", ci, comp.CompName())
		for _, n := range pt.NodesOn(comp) {
			shape := "box"
			style := ""
			if n.IsBehavior() {
				shape = "ellipse"
			}
			if n.IsProcess {
				style = ", style=bold"
			}
			fmt.Fprintf(bw, "    %q [shape=%s%s];\n", n.Name, shape, style)
		}
		fmt.Fprintln(bw, "  }")
	}
	// Unmapped nodes (partial partitions) go outside any cluster.
	for _, n := range g.Nodes {
		if pt.BvComp(n) == nil {
			fmt.Fprintf(bw, "  %q [shape=box, style=dashed];\n", n.Name)
		}
	}
	for _, p := range g.Ports {
		fmt.Fprintf(bw, "  %q [shape=diamond];\n", p.Name)
	}
	for _, c := range g.Channels {
		attr := ""
		if src, dst := pt.BvComp(c.Src), pt.DstComp(c); dst == nil || src != dst {
			attr = " [color=red]" // crossing edges cost bus transfers and pins
		}
		fmt.Fprintf(bw, "  %q -> %q%s;\n", c.Src.Name, c.Dst.EndpointName(), attr)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

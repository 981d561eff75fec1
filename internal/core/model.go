// Package core implements SLIF, the specification-level intermediate format
// of Vahid's SpecSyn (TR CS-94-06 / DATE 1995).
//
// A SLIF design is the annotated sextuple ⟨BV_all, IO_all, C_all, P_all,
// M_all, I_all⟩ of §2.2/§2.5 of the paper: behavior and variable nodes, I/O
// ports, access channels, processors (standard or custom/ASIC), memories,
// and buses. Nodes carry preprocessed per-component-type internal
// computation time (ict) and size weights; channels carry access frequency,
// transferred bits and concurrency tags; buses carry bit-width and
// same/different-component transfer times. A Partition maps every
// functional object to exactly one system component, and package estimate
// computes the §3 design metrics from a (Graph, Partition) pair by lookups
// and sums only.
package core

import (
	"fmt"
	"math"
	"sort"
)

// NodeKind distinguishes behavior nodes from variable nodes.
type NodeKind int

// Node kinds.
const (
	BehaviorNode NodeKind = iota
	VariableNode
)

func (k NodeKind) String() string {
	if k == BehaviorNode {
		return "behavior"
	}
	return "variable"
}

// NoTag marks a channel access that is strictly sequential with respect to
// every other access of the same source behavior.
const NoTag = -1

// Node is one element of BV_all: a behavior (process or procedure) or a
// variable. The ICT and Size maps are the ict_list/size_list annotations of
// §2.5, keyed by component *type* name. For a variable node, ICT holds the
// storage read/write time on each candidate component type.
type Node struct {
	Name      string
	Kind      NodeKind
	IsProcess bool // §2.3: marked process nodes repeat forever

	ICT  map[string]float64 // component type → internal computation time (µs)
	Size map[string]float64 // component type → size (bytes, gates or words)

	// StorageBits is the footprint of a variable (array length × element
	// width); informational for memory sizing models.
	StorageBits int64
}

// IsBehavior reports whether the node is a behavior node.
func (n *Node) IsBehavior() bool { return n.Kind == BehaviorNode }

// SetICT records the internal computation time of the node on the given
// component type.
func (n *Node) SetICT(compType string, val float64) {
	if n.ICT == nil {
		n.ICT = make(map[string]float64)
	}
	n.ICT[compType] = val
}

// SetSize records the size weight of the node on the given component type.
func (n *Node) SetSize(compType string, val float64) {
	if n.Size == nil {
		n.Size = make(map[string]float64)
	}
	n.Size[compType] = val
}

// PortDir is the direction of an I/O port.
type PortDir int

// Port directions.
const (
	In PortDir = iota
	Out
	InOut
)

func (d PortDir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return "inout"
	}
}

// Port is one element of IO_all: an external port of the system.
type Port struct {
	Name string
	Dir  PortDir
	Bits int // encoding width of the port's data
}

// Endpoint is a channel destination: a Node or a Port.
type Endpoint interface {
	EndpointName() string
}

// EndpointName implements Endpoint.
func (n *Node) EndpointName() string { return n.Name }

// EndpointName implements Endpoint.
func (p *Port) EndpointName() string { return p.Name }

// Channel is one element of C_all: an access by the source behavior to a
// behavior, variable or port (§2.2). Direction is initiator → accessed
// object, not data flow; a cycle therefore represents recursion.
type Channel struct {
	Src *Node    // always a behavior node
	Dst Endpoint // node or port

	AccFreq float64 // average accesses per start-to-finish execution of Src
	AccMin  float64 // minimum accesses (§2.4.1)
	AccMax  float64 // maximum accesses
	Bits    int     // bits transferred per access (§2.4.1)
	Tag     int     // concurrency tag (§2.3); NoTag = strictly sequential
}

// Key returns the (src, dst) identity of the channel. SLIF merges all
// accesses between the same pair into one edge, so Key is unique per graph.
func (c *Channel) Key() string { return c.Src.Name + "->" + c.Dst.EndpointName() }

// chanKey is Key as a map key, without building the string.
type chanKey struct{ src, dst string }

func (c *Channel) key() chanKey { return chanKey{c.Src.Name, c.Dst.EndpointName()} }

// Processor is one element of P_all: a standard processor or a custom
// (ASIC) processor to which behaviors and variables may be mapped.
type Processor struct {
	Name     string
	TypeName string  // key into node ICT/Size maps
	Custom   bool    // true for ASIC/custom hardware
	SizeCon  float64 // size constraint (§2.4.3); 0 = unconstrained
	PinCon   int     // I/O pin constraint (§2.4.2); 0 = unconstrained
}

// Memory is one element of M_all: a memory to which variables may be mapped.
type Memory struct {
	Name     string
	TypeName string
	SizeCon  float64 // size constraint in words; 0 = unconstrained
}

// Bus is one element of I_all. BitWidth is physical wires; TS/TD are the
// same-component and different-component transfer times of §2.4.1.
type Bus struct {
	Name     string
	BitWidth int
	TS       float64 // µs per transfer within one component
	TD       float64 // µs per transfer between components
}

// Component is a processor or memory (the targets of the BV mapping).
type Component interface {
	CompName() string
	// TypeKey returns the component type name used to look up node weights.
	TypeKey() string
}

// CompName implements Component.
func (p *Processor) CompName() string { return p.Name }

// TypeKey implements Component.
func (p *Processor) TypeKey() string { return p.TypeName }

// CompName implements Component.
func (m *Memory) CompName() string { return m.Name }

// TypeKey implements Component.
func (m *Memory) TypeKey() string { return m.TypeName }

// Graph is a complete SLIF design.
type Graph struct {
	Name string

	Nodes    []*Node    // BV_all
	Ports    []*Port    // IO_all
	Channels []*Channel // C_all
	Procs    []*Processor
	Mems     []*Memory
	Buses    []*Bus

	nodeByName map[string]*Node
	portByName map[string]*Port
	chanByKey  map[chanKey]*Channel
	outgoing   map[*Node][]*Channel // GetBehChans index
	incoming   map[string][]*Channel
}

// NewGraph returns an empty SLIF graph.
func NewGraph(name string) *Graph {
	return &Graph{
		Name:       name,
		nodeByName: make(map[string]*Node),
		portByName: make(map[string]*Port),
		chanByKey:  make(map[chanKey]*Channel),
		outgoing:   make(map[*Node][]*Channel),
		incoming:   make(map[string][]*Channel),
	}
}

// AddNode adds a behavior or variable node. Names must be unique across
// nodes and ports.
func (g *Graph) AddNode(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("slif: node with empty name")
	}
	if g.nodeByName[n.Name] != nil || g.portByName[n.Name] != nil {
		return fmt.Errorf("slif: duplicate node name %q", n.Name)
	}
	g.Nodes = append(g.Nodes, n)
	g.nodeByName[n.Name] = n
	return nil
}

// AddPort adds an external port.
func (g *Graph) AddPort(p *Port) error {
	if p.Name == "" {
		return fmt.Errorf("slif: port with empty name")
	}
	if g.nodeByName[p.Name] != nil || g.portByName[p.Name] != nil {
		return fmt.Errorf("slif: duplicate port name %q", p.Name)
	}
	g.Ports = append(g.Ports, p)
	g.portByName[p.Name] = p
	return nil
}

// AddChannel adds an access channel. The source must be a behavior node
// already in the graph, the destination a node or port in the graph, and
// the (src, dst) pair must be new — SLIF merges repeated accesses into one
// edge before this point.
func (g *Graph) AddChannel(c *Channel) error {
	if c.Src == nil || !c.Src.IsBehavior() {
		return fmt.Errorf("slif: channel source must be a behavior node")
	}
	if g.nodeByName[c.Src.Name] != c.Src {
		return fmt.Errorf("slif: channel source %q not in graph", c.Src.Name)
	}
	switch d := c.Dst.(type) {
	case *Node:
		if g.nodeByName[d.Name] != d {
			return fmt.Errorf("slif: channel destination %q not in graph", d.Name)
		}
	case *Port:
		if g.portByName[d.Name] != d {
			return fmt.Errorf("slif: channel destination port %q not in graph", d.Name)
		}
	default:
		return fmt.Errorf("slif: channel has no destination")
	}
	key := c.key()
	if g.chanByKey[key] != nil {
		return fmt.Errorf("slif: duplicate channel %s", c.Key())
	}
	g.Channels = append(g.Channels, c)
	g.chanByKey[key] = c
	g.outgoing[c.Src] = append(g.outgoing[c.Src], c)
	g.incoming[c.Dst.EndpointName()] = append(g.incoming[c.Dst.EndpointName()], c)
	return nil
}

// AddProcessor adds a processor component.
func (g *Graph) AddProcessor(p *Processor) { g.Procs = append(g.Procs, p) }

// AddMemory adds a memory component.
func (g *Graph) AddMemory(m *Memory) { g.Mems = append(g.Mems, m) }

// AddBus adds a bus component.
func (g *Graph) AddBus(b *Bus) { g.Buses = append(g.Buses, b) }

// NodeByName returns the node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node { return g.nodeByName[name] }

// PortByName returns the port with the given name, or nil.
func (g *Graph) PortByName(name string) *Port { return g.portByName[name] }

// FindChannel returns the channel from src to dst, or nil.
func (g *Graph) FindChannel(src, dst string) *Channel {
	return g.chanByKey[chanKey{src, dst}]
}

// BehChans implements GetBehChans(b) of §3.1: all channels whose source is b.
func (g *Graph) BehChans(b *Node) []*Channel { return g.outgoing[b] }

// InChans returns all channels whose destination is the named node or port.
func (g *Graph) InChans(name string) []*Channel { return g.incoming[name] }

// ProcByName returns the processor with the given name, or nil.
func (g *Graph) ProcByName(name string) *Processor {
	for _, p := range g.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// MemByName returns the memory with the given name, or nil.
func (g *Graph) MemByName(name string) *Memory {
	for _, m := range g.Mems {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// BusByName returns the bus with the given name, or nil.
func (g *Graph) BusByName(name string) *Bus {
	for _, b := range g.Buses {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Behaviors returns the behavior nodes in insertion order.
func (g *Graph) Behaviors() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.IsBehavior() {
			out = append(out, n)
		}
	}
	return out
}

// Variables returns the variable nodes in insertion order.
func (g *Graph) Variables() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if !n.IsBehavior() {
			out = append(out, n)
		}
	}
	return out
}

// Processes returns the behavior nodes marked as processes (§2.3).
func (g *Graph) Processes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.IsProcess {
			out = append(out, n)
		}
	}
	return out
}

// Stats summarizes the size of a SLIF graph; this is what the paper's
// Figure 4 reports per example.
type Stats struct {
	BV       int // behavior + variable nodes
	IO       int
	Channels int
	Procs    int
	Mems     int
	Buses    int
}

// Stats returns the graph's size summary.
func (g *Graph) Stats() Stats {
	return Stats{
		BV: len(g.Nodes), IO: len(g.Ports), Channels: len(g.Channels),
		Procs: len(g.Procs), Mems: len(g.Mems), Buses: len(g.Buses),
	}
}

// Components returns all processors and memories as the Component interface,
// processors first, in insertion order.
func (g *Graph) Components() []Component {
	out := make([]Component, 0, len(g.Procs)+len(g.Mems))
	for _, p := range g.Procs {
		out = append(out, p)
	}
	for _, m := range g.Mems {
		out = append(out, m)
	}
	return out
}

// Validate checks structural invariants of the graph itself (not of a
// partition): channel endpoints are present, sources are behaviors,
// annotations are finite and, but for AccMin and AccMax, non-negative,
// and channel keys are unique. A non-finite annotation would turn every
// estimate that reads it into +Inf or NaN, so a build refuses it.
func (g *Graph) Validate() error {
	// Dedupe on the (src, dst) name pair rather than Key(): building the
	// "src->dst" string for every channel dominates validation on large
	// graphs, and this check sits on the incremental-rebuild hot path.
	seen := make(map[[2]string]bool, len(g.Channels))
	for _, c := range g.Channels {
		if !c.Src.IsBehavior() {
			return fmt.Errorf("slif: channel %s has variable source", c.Key())
		}
		k := [2]string{c.Src.Name, c.Dst.EndpointName()}
		if seen[k] {
			return fmt.Errorf("slif: duplicate channel %s", c.Key())
		}
		seen[k] = true
		if c.AccFreq < 0 || c.Bits < 0 || !finite(c.AccFreq) || !finite(c.AccMin) || !finite(c.AccMax) {
			return fmt.Errorf("slif: channel %s has a negative or non-finite annotation", c.Key())
		}
		if c.AccMax != 0 && c.AccMax < c.AccMin {
			return fmt.Errorf("slif: channel %s has accmax < accmin", c.Key())
		}
	}
	for _, n := range g.Nodes {
		for t, v := range n.ICT {
			if v < 0 || !finite(v) {
				return fmt.Errorf("slif: node %s has negative or non-finite ict on %s", n.Name, t)
			}
		}
		for t, v := range n.Size {
			if v < 0 || !finite(v) {
				return fmt.Errorf("slif: node %s has negative or non-finite size on %s", n.Name, t)
			}
		}
	}
	for _, b := range g.Buses {
		if b.BitWidth <= 0 {
			return fmt.Errorf("slif: bus %s has non-positive bitwidth", b.Name)
		}
		if b.TS < 0 || b.TD < 0 {
			return fmt.Errorf("slif: bus %s has negative transfer time", b.Name)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// Reindex rebuilds every internal lookup map (name → node/port, channel
// key, per-node adjacency) from the graph's slices. The Add/Remove helpers
// maintain the indexes incrementally; code that edits the slices directly
// — bulk builders, deserializers, surgery the helpers don't cover — must
// call Reindex before the next lookup, or lookups may serve stale
// pointers. Reindex is idempotent and O(|graph|); Compile does not need it
// (a Snapshot is built from the slices alone).
func (g *Graph) Reindex() {
	g.nodeByName = make(map[string]*Node, len(g.Nodes))
	g.portByName = make(map[string]*Port, len(g.Ports))
	g.chanByKey = make(map[chanKey]*Channel, len(g.Channels))
	g.outgoing = make(map[*Node][]*Channel, len(g.Nodes))
	g.incoming = make(map[string][]*Channel, len(g.Nodes))
	for _, n := range g.Nodes {
		g.nodeByName[n.Name] = n
	}
	for _, p := range g.Ports {
		g.portByName[p.Name] = p
	}
	// Size every adjacency list first and cut them all from two arrays,
	// so the lists cost two allocations, not a growth series per node.
	// Each list's capacity is its length: a later append reallocates.
	outN := make(map[*Node]int, len(g.Nodes))
	inN := make(map[string]int, len(g.Nodes))
	for _, c := range g.Channels {
		g.chanByKey[c.key()] = c
		outN[c.Src]++
		inN[c.Dst.EndpointName()]++
	}
	out := make([]*Channel, len(g.Channels))
	in := make([]*Channel, len(g.Channels))
	for _, c := range g.Channels {
		if g.outgoing[c.Src] == nil {
			n := outN[c.Src]
			g.outgoing[c.Src], out = out[:0:n], out[n:]
		}
		g.outgoing[c.Src] = append(g.outgoing[c.Src], c)
		dst := c.Dst.EndpointName()
		if g.incoming[dst] == nil {
			n := inN[dst]
			g.incoming[dst], in = in[:0:n], in[n:]
		}
		g.incoming[dst] = append(g.incoming[dst], c)
	}
}

// Clone returns a deep copy of the graph. When withComponents is false the
// copy has empty P/M/I sets — the form allocation explorers start from.
// The copy's slices are built directly and indexed by one Reindex pass, so
// its lookups can never serve pointers into the original graph.
func (g *Graph) Clone(withComponents bool) *Graph {
	ng := NewGraph(g.Name)
	nodeOf := make(map[*Node]*Node, len(g.Nodes))
	portOf := make(map[*Port]*Port, len(g.Ports))
	for _, p := range g.Ports {
		np := *p
		ng.Ports = append(ng.Ports, &np)
		portOf[p] = &np
	}
	for _, n := range g.Nodes {
		nn := &Node{Name: n.Name, Kind: n.Kind, IsProcess: n.IsProcess, StorageBits: n.StorageBits}
		for k, v := range n.ICT {
			nn.SetICT(k, v)
		}
		for k, v := range n.Size {
			nn.SetSize(k, v)
		}
		ng.Nodes = append(ng.Nodes, nn)
		nodeOf[n] = nn
	}
	for _, c := range g.Channels {
		var dst Endpoint
		switch d := c.Dst.(type) {
		case *Node:
			dst = nodeOf[d]
		case *Port:
			dst = portOf[d]
		}
		ng.Channels = append(ng.Channels, &Channel{
			Src: nodeOf[c.Src], Dst: dst,
			AccFreq: c.AccFreq, AccMin: c.AccMin, AccMax: c.AccMax,
			Bits: c.Bits, Tag: c.Tag,
		})
	}
	ng.Reindex()
	if withComponents {
		for _, p := range g.Procs {
			cp := *p
			ng.AddProcessor(&cp)
		}
		for _, m := range g.Mems {
			cm := *m
			ng.AddMemory(&cm)
		}
		for _, b := range g.Buses {
			cb := *b
			ng.AddBus(&cb)
		}
	}
	return ng
}

// RemoveNode deletes a node and every channel touching it. It is the
// low-level mutation the transformation engine applies to its own copy
// of a graph; the caller must keep any Partition over the graph
// consistent itself.
func (g *Graph) RemoveNode(n *Node) {
	if g.nodeByName[n.Name] != n {
		return
	}
	delete(g.nodeByName, n.Name)
	g.Nodes = deleteElem(g.Nodes, n)
	// Channels from n.
	for _, c := range g.outgoing[n] {
		delete(g.chanByKey, c.key())
		g.Channels = deleteElem(g.Channels, c)
		g.incoming[c.Dst.EndpointName()] = deleteElem(g.incoming[c.Dst.EndpointName()], c)
	}
	delete(g.outgoing, n)
	// Channels to n.
	for _, c := range g.incoming[n.Name] {
		delete(g.chanByKey, c.key())
		g.Channels = deleteElem(g.Channels, c)
		g.outgoing[c.Src] = deleteElem(g.outgoing[c.Src], c)
	}
	delete(g.incoming, n.Name)
}

// RemoveChannel deletes a single channel.
func (g *Graph) RemoveChannel(c *Channel) {
	if g.chanByKey[c.key()] != c {
		return
	}
	delete(g.chanByKey, c.key())
	g.Channels = deleteElem(g.Channels, c)
	g.outgoing[c.Src] = deleteElem(g.outgoing[c.Src], c)
	g.incoming[c.Dst.EndpointName()] = deleteElem(g.incoming[c.Dst.EndpointName()], c)
}

// deleteElem removes the first occurrence of v from s, preserving order.
func deleteElem[T comparable](s []T, v T) []T {
	for i, x := range s {
		if x == v {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}

// SortedCompTypes returns the sorted union of component type names that
// appear in any node's annotation maps — useful for reports.
func (g *Graph) SortedCompTypes() []string {
	set := map[string]bool{}
	for _, n := range g.Nodes {
		for t := range n.ICT {
			set[t] = true
		}
		for t := range n.Size {
			set[t] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

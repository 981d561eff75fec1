package core

import (
	"fmt"
	"math"
	"sort"
)

// Snapshot is the compiled, immutable, index-based view of a Graph: every
// object is a dense int32 ID, adjacency is compressed-sparse-row slices,
// and the per-node annotation maps are flattened into node×component
// weight tables. The pointer Graph stays the build/front-end
// representation; the hot estimation and partition-search layers walk the
// Snapshot so a move trial is pure array arithmetic — no pointer chasing,
// no string hashing.
//
// A Snapshot is a pure function of the Graph's slices (Nodes, Ports,
// Channels, Procs, Mems, Buses) in their stored order: Compile never reads
// the Graph's internal lookup maps, so it cannot be poisoned by a stale
// index, and compiling the same Graph twice yields byte-identical
// snapshots (see MarshalBinary). After Compile the Graph must not gain or
// lose objects while the Snapshot is in use; reannotating weights requires
// recompiling.
//
// ID spaces:
//
//	node    IDs index Graph.Nodes
//	port    IDs index Graph.Ports
//	comp    IDs index Graph.Components() — processors first, then memories
//	bus     IDs index Graph.Buses
//	channel IDs index Graph.Channels
//	type    IDs index TypeNames (sorted union of annotation/component types)
//
// A Snapshot is safe for concurrent readers; nothing mutates it after
// Compile returns.
type Snapshot struct {
	Name string

	// Per-node arrays, indexed by node ID.
	NodeKind  []NodeKind
	IsProcess []bool
	Storage   []int64 // StorageBits

	// Per-port arrays, indexed by port ID. The estimators never read
	// these; they are here so that a snapshot's bytes (MarshalBinary) pin
	// the whole graph, and the byte checks that a rebuild equals a build,
	// or a restored graph the one checkpointed, see a changed port.
	PortDir  []PortDir
	PortBits []int32

	// Per-component arrays, indexed by comp ID. IDs < NumProcs are
	// processors, the rest memories.
	NumProcs    int
	CompCustom  []bool
	CompSizeCon []float64
	CompPinCon  []int32
	CompType    []int32 // type ID of the component's TypeKey

	// Weight tables, indexed [nodeID*NumComps()+compID]; NaN marks a
	// missing annotation (the node has no weight for that component type).
	ICT  []float64
	Size []float64

	// Extra annotation weights: ICT/Size entries keyed by component types
	// that no allocated component uses. The node×comp tables above cannot
	// hold them (there is no comp ID) and the estimators never read them;
	// they ride along, for the same byte checks as the port arrays, as
	// sparse triples sorted by (node ID, type ID) — deterministic by
	// construction.
	ExtraICT  []ExtraWeight
	ExtraSize []ExtraWeight

	// Per-bus arrays, indexed by bus ID.
	BusWidth []int32
	BusTS    []float64
	BusTD    []float64

	// Per-channel arrays, indexed by channel ID. ChanDst holds the
	// destination node ID, or -(portID+1) when the destination is an
	// external port.
	ChanSrc  []int32
	ChanDst  []int32
	ChanFreq []float64 // AccFreq
	ChanMin  []float64 // AccMin
	ChanMax  []float64 // AccMax
	ChanBits []int32
	ChanTag  []int32 // NoTag = strictly sequential

	// CSR adjacency: channels with Src = n are OutChan[OutStart[n]:
	// OutStart[n+1]]; channels with Dst = node n are InChan[InStart[n]:
	// InStart[n+1]] (port-destination channels appear in no In list).
	// Within a range, channel IDs are ascending, so per-node iteration
	// order matches the Graph's BehChans order.
	OutStart []int32
	OutChan  []int32
	InStart  []int32
	InChan   []int32

	// Interning tables: ID → name, for diagnostics.
	NodeNames []string
	PortNames []string
	CompNames []string
	BusNames  []string
	TypeNames []string

	nodeID map[string]int32
	portID map[string]int32
	compID map[string]int32
	busID  map[string]int32
}

// ExtraWeight is one sparse annotation entry: node ni carries weight W for
// the component type TypeNames[Type], which no allocated component uses.
type ExtraWeight struct {
	Node int32
	Type int32
	W    float64
}

// NumNodes returns the node count.
func (s *Snapshot) NumNodes() int { return len(s.NodeKind) }

// NumComps returns the component count (processors + memories).
func (s *Snapshot) NumComps() int { return len(s.CompType) }

// NumBuses returns the bus count.
func (s *Snapshot) NumBuses() int { return len(s.BusWidth) }

// NumChans returns the channel count.
func (s *Snapshot) NumChans() int { return len(s.ChanSrc) }

// IsMem reports whether comp ID ci is a memory.
func (s *Snapshot) IsMem(ci int32) bool { return int(ci) >= s.NumProcs }

// Out returns the IDs of the channels whose source is node ni, in channel
// order. The slice aliases the snapshot; callers must not modify it.
func (s *Snapshot) Out(ni int32) []int32 { return s.OutChan[s.OutStart[ni]:s.OutStart[ni+1]] }

// In returns the IDs of the channels whose destination is node ni, in
// channel order. Port-destination channels appear in no In list.
func (s *Snapshot) In(ni int32) []int32 { return s.InChan[s.InStart[ni]:s.InStart[ni+1]] }

// Ict returns the ICT weight of node ni on component ci; NaN = missing.
func (s *Snapshot) Ict(ni, ci int32) float64 { return s.ICT[int(ni)*s.NumComps()+int(ci)] }

// SizeOf returns the size weight of node ni on component ci; NaN = missing.
func (s *Snapshot) SizeOf(ni, ci int32) float64 { return s.Size[int(ni)*s.NumComps()+int(ci)] }

// NodeID returns the ID of the named node; -1 when absent.
func (s *Snapshot) NodeID(name string) int32 { return lookupID(s.nodeID, name) }

// CompID returns the ID of the named component; -1 when absent.
func (s *Snapshot) CompID(name string) int32 { return lookupID(s.compID, name) }

// BusID returns the ID of the named bus; -1 when absent.
func (s *Snapshot) BusID(name string) int32 { return lookupID(s.busID, name) }

func lookupID(m map[string]int32, name string) int32 {
	if id, ok := m[name]; ok {
		return id
	}
	return -1
}

// ChanKey returns the channel's "src->dst" identity, matching Channel.Key.
func (s *Snapshot) ChanKey(ci int32) string {
	dst := s.ChanDst[ci]
	name := ""
	if dst >= 0 {
		name = s.NodeNames[dst]
	} else {
		name = s.PortNames[-dst-1]
	}
	return s.NodeNames[s.ChanSrc[ci]] + "->" + name
}

// Compile flattens g into a Snapshot. It reads only the Graph's slices —
// never its internal lookup maps — and is deterministic: the same slice
// contents always produce the same snapshot, byte for byte. It fails on
// graphs whose flat form would be ambiguous (duplicate names) or
// inconsistent (channel endpoints not in the graph's slices).
func Compile(g *Graph) (*Snapshot, error) {
	nn, np, nb, nch := len(g.Nodes), len(g.Ports), len(g.Buses), len(g.Channels)
	comps := g.Components()
	nc := len(comps)
	s := &Snapshot{
		Name:      g.Name,
		NodeKind:  make([]NodeKind, nn),
		IsProcess: make([]bool, nn),
		Storage:   make([]int64, nn),

		PortDir:  make([]PortDir, np),
		PortBits: make([]int32, np),

		NumProcs:    len(g.Procs),
		CompCustom:  make([]bool, nc),
		CompSizeCon: make([]float64, nc),
		CompPinCon:  make([]int32, nc),
		CompType:    make([]int32, nc),

		ICT:  make([]float64, nn*nc),
		Size: make([]float64, nn*nc),

		BusWidth: make([]int32, nb),
		BusTS:    make([]float64, nb),
		BusTD:    make([]float64, nb),

		ChanSrc:  make([]int32, nch),
		ChanDst:  make([]int32, nch),
		ChanFreq: make([]float64, nch),
		ChanMin:  make([]float64, nch),
		ChanMax:  make([]float64, nch),
		ChanBits: make([]int32, nch),
		ChanTag:  make([]int32, nch),

		OutStart: make([]int32, nn+1),
		InStart:  make([]int32, nn+1),
		OutChan:  make([]int32, nch),

		NodeNames: make([]string, nn),
		PortNames: make([]string, np),
		CompNames: make([]string, nc),
		BusNames:  make([]string, nb),

		nodeID: make(map[string]int32, nn),
		portID: make(map[string]int32, np),
		compID: make(map[string]int32, nc),
		busID:  make(map[string]int32, nb),
	}

	// Objects and interning. Local pointer→ID maps resolve channel
	// endpoints by identity, so a foreign endpoint (same name, different
	// object) is an error, not a silent mis-wire.
	nodeOf := make(map[*Node]int32, nn)
	for i, n := range g.Nodes {
		if _, dup := s.nodeID[n.Name]; dup {
			return nil, fmt.Errorf("slif: compile: duplicate node name %q", n.Name)
		}
		if _, dup := s.portID[n.Name]; dup {
			return nil, fmt.Errorf("slif: compile: node %q collides with a port name", n.Name)
		}
		s.nodeID[n.Name] = int32(i)
		s.NodeNames[i] = n.Name
		s.NodeKind[i] = n.Kind
		s.IsProcess[i] = n.IsProcess
		s.Storage[i] = n.StorageBits
		nodeOf[n] = int32(i)
	}
	portOf := make(map[*Port]int32, np)
	for i, p := range g.Ports {
		if _, dup := s.portID[p.Name]; dup {
			return nil, fmt.Errorf("slif: compile: duplicate port name %q", p.Name)
		}
		if _, dup := s.nodeID[p.Name]; dup {
			return nil, fmt.Errorf("slif: compile: port %q collides with a node name", p.Name)
		}
		s.portID[p.Name] = int32(i)
		s.PortNames[i] = p.Name
		s.PortDir[i] = p.Dir
		s.PortBits[i] = int32(p.Bits)
		portOf[p] = int32(i)
	}

	// Type interning: sorted union of component types and node annotation
	// types. Sorting makes the ID assignment independent of map iteration
	// order over the ICT/Size annotation maps.
	typeSet := map[string]bool{}
	for _, c := range comps {
		typeSet[c.TypeKey()] = true
	}
	for _, n := range g.Nodes {
		for t := range n.ICT {
			typeSet[t] = true
		}
		for t := range n.Size {
			typeSet[t] = true
		}
	}
	s.TypeNames = make([]string, 0, len(typeSet))
	for t := range typeSet {
		s.TypeNames = append(s.TypeNames, t)
	}
	sort.Strings(s.TypeNames)
	typeID := make(map[string]int32, len(s.TypeNames))
	for i, t := range s.TypeNames {
		typeID[t] = int32(i)
	}

	for i, c := range comps {
		if _, dup := s.compID[c.CompName()]; dup {
			return nil, fmt.Errorf("slif: compile: duplicate component name %q", c.CompName())
		}
		s.compID[c.CompName()] = int32(i)
		s.CompNames[i] = c.CompName()
		s.CompType[i] = typeID[c.TypeKey()]
		switch p := c.(type) {
		case *Processor:
			s.CompCustom[i] = p.Custom
			s.CompSizeCon[i] = p.SizeCon
			s.CompPinCon[i] = int32(p.PinCon)
		case *Memory:
			s.CompSizeCon[i] = p.SizeCon
		}
	}
	for i, b := range g.Buses {
		if _, dup := s.busID[b.Name]; dup {
			return nil, fmt.Errorf("slif: compile: duplicate bus name %q", b.Name)
		}
		s.busID[b.Name] = int32(i)
		s.BusNames[i] = b.Name
		s.BusWidth[i] = int32(b.BitWidth)
		s.BusTS[i] = b.TS
		s.BusTD[i] = b.TD
	}

	// Weight tables, NaN-coded.
	for i, n := range g.Nodes {
		for ci, c := range comps {
			s.ICT[i*nc+ci] = weightOrNaN(n.ICT, c.TypeKey())
			s.Size[i*nc+ci] = weightOrNaN(n.Size, c.TypeKey())
		}
	}

	// Extra weights: annotations on types no component uses. Iterating
	// nodes in ID order and types in sorted-name (= type ID) order keeps
	// the slices deterministic regardless of map iteration.
	compType := make(map[string]bool, nc)
	for _, c := range comps {
		compType[c.TypeKey()] = true
	}
	var extraTypes []string
	for _, t := range s.TypeNames {
		if !compType[t] {
			extraTypes = append(extraTypes, t)
		}
	}
	for i, n := range g.Nodes {
		for _, t := range extraTypes {
			if w, ok := n.ICT[t]; ok {
				s.ExtraICT = append(s.ExtraICT, ExtraWeight{Node: int32(i), Type: typeID[t], W: w})
			}
			if w, ok := n.Size[t]; ok {
				s.ExtraSize = append(s.ExtraSize, ExtraWeight{Node: int32(i), Type: typeID[t], W: w})
			}
		}
	}

	// Channels and CSR adjacency. Two passes: count, then prefix-sum and
	// fill in channel order, which keeps per-node order identical to the
	// Graph's insertion-ordered BehChans/InChans lists.
	inCnt := make([]int32, nn)
	for ci, c := range g.Channels {
		si, ok := nodeOf[c.Src]
		if !ok {
			return nil, fmt.Errorf("slif: compile: channel %s has a source outside the graph", c.Key())
		}
		s.ChanSrc[ci] = si
		switch d := c.Dst.(type) {
		case *Node:
			di, ok := nodeOf[d]
			if !ok {
				return nil, fmt.Errorf("slif: compile: channel %s has a destination outside the graph", c.Key())
			}
			s.ChanDst[ci] = di
			inCnt[di]++
		case *Port:
			pi, ok := portOf[d]
			if !ok {
				return nil, fmt.Errorf("slif: compile: channel %s has a destination port outside the graph", c.Key())
			}
			s.ChanDst[ci] = -(pi + 1)
		default:
			return nil, fmt.Errorf("slif: compile: channel %s has no destination", c.Key())
		}
		s.ChanFreq[ci] = c.AccFreq
		s.ChanMin[ci] = c.AccMin
		s.ChanMax[ci] = c.AccMax
		s.ChanBits[ci] = int32(c.Bits)
		s.ChanTag[ci] = int32(c.Tag)
		s.OutStart[si+1]++
	}
	for i := 0; i < nn; i++ {
		s.OutStart[i+1] += s.OutStart[i]
		s.InStart[i+1] = s.InStart[i] + inCnt[i]
	}
	s.InChan = make([]int32, s.InStart[nn])
	outNext := make([]int32, nn)
	copy(outNext, s.OutStart[:nn])
	inNext := make([]int32, nn)
	copy(inNext, s.InStart[:nn])
	for ci := range g.Channels {
		si := s.ChanSrc[ci]
		s.OutChan[outNext[si]] = int32(ci)
		outNext[si]++
		if di := s.ChanDst[ci]; di >= 0 {
			s.InChan[inNext[di]] = int32(ci)
			inNext[di]++
		}
	}
	return s, nil
}

func weightOrNaN(m map[string]float64, key string) float64 {
	if w, ok := m[key]; ok {
		return w
	}
	return math.NaN()
}

// Assignment overlays a partition on a Snapshot as two flat ID vectors:
// the component per node and the bus per channel, -1 = unmapped. It is the
// hot-layer counterpart of Partition — a move is one int32 store, a trial
// touches no maps.
type Assignment struct {
	NodeComp []int32
	ChanBus  []int32
}

// NewAssignment returns an all-unmapped assignment sized for s.
func NewAssignment(s *Snapshot) *Assignment {
	a := &Assignment{
		NodeComp: make([]int32, s.NumNodes()),
		ChanBus:  make([]int32, s.NumChans()),
	}
	a.Clear()
	return a
}

// Clear unmaps everything.
func (a *Assignment) Clear() {
	for i := range a.NodeComp {
		a.NodeComp[i] = -1
	}
	for i := range a.ChanBus {
		a.ChanBus[i] = -1
	}
}

// CopyFrom copies src into a (same snapshot).
func (a *Assignment) CopyFrom(src *Assignment) {
	copy(a.NodeComp, src.NodeComp)
	copy(a.ChanBus, src.ChanBus)
}

// Capture translates pt — a Partition over the Graph s was compiled from —
// into a, resolving components and buses by name. Unmapped objects stay
// -1; a mapping to a component or bus unknown to the snapshot is an error.
func (s *Snapshot) Capture(pt *Partition, a *Assignment) error {
	g := pt.Graph()
	if len(g.Nodes) != s.NumNodes() || len(g.Channels) != s.NumChans() {
		return fmt.Errorf("slif: capture: partition graph does not match the snapshot")
	}
	for i, n := range g.Nodes {
		a.NodeComp[i] = -1
		c := pt.BvComp(n)
		if c == nil {
			continue
		}
		ci := s.CompID(c.CompName())
		if ci < 0 {
			return fmt.Errorf("slif: capture: node %q is mapped to component %q outside the snapshot", n.Name, c.CompName())
		}
		a.NodeComp[i] = ci
	}
	for i, c := range g.Channels {
		a.ChanBus[i] = -1
		b := pt.ChanBus(c)
		if b == nil {
			continue
		}
		bi := s.BusID(b.Name)
		if bi < 0 {
			return fmt.Errorf("slif: capture: channel %s is mapped to bus %q outside the snapshot", c.Key(), b.Name)
		}
		a.ChanBus[i] = bi
	}
	return nil
}

// snapMagic is the versioned header of the snapshot encoding. Version 2
// added the port dir/bits arrays and the sparse extra-weight tables, so
// the image covers everything the .slif text of its Graph carries except
// the partition.
const snapMagic = "SLIFSNAP\x02"

// MarshalBinary serializes the snapshot deterministically: equal snapshots
// (and therefore equal compiled graphs) produce equal bytes. The format is
// a versioned magic followed by every array, length-prefixed, in struct
// order. Nothing reads it back — the .slif text (Write/Read) is the graph's
// exchange and checkpoint format — but equal images are how the tests and
// the benchmark check that two graphs are the same design.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	var b []byte
	b = append(b, snapMagic...)
	b = appendString(b, s.Name)
	b = appendU32(b, uint32(s.NumProcs))

	b = appendU32(b, uint32(len(s.NodeKind)))
	for i := range s.NodeKind {
		k := byte(s.NodeKind[i])
		if s.IsProcess[i] {
			k |= 0x80
		}
		b = append(b, k)
		b = appendU64(b, uint64(s.Storage[i]))
	}

	b = appendU32(b, uint32(len(s.PortDir)))
	for i := range s.PortDir {
		b = append(b, byte(s.PortDir[i]))
		b = appendU32(b, uint32(s.PortBits[i]))
	}

	b = appendU32(b, uint32(len(s.CompType)))
	for i := range s.CompType {
		flag := byte(0)
		if s.CompCustom[i] {
			flag = 1
		}
		b = append(b, flag)
		b = appendU64(b, math.Float64bits(s.CompSizeCon[i]))
		b = appendU32(b, uint32(s.CompPinCon[i]))
		b = appendU32(b, uint32(s.CompType[i]))
	}

	b = appendFloats(b, s.ICT)
	b = appendFloats(b, s.Size)
	b = appendExtras(b, s.ExtraICT)
	b = appendExtras(b, s.ExtraSize)

	b = appendU32(b, uint32(len(s.BusWidth)))
	for i := range s.BusWidth {
		b = appendU32(b, uint32(s.BusWidth[i]))
		b = appendU64(b, math.Float64bits(s.BusTS[i]))
		b = appendU64(b, math.Float64bits(s.BusTD[i]))
	}

	b = appendU32(b, uint32(len(s.ChanSrc)))
	for i := range s.ChanSrc {
		b = appendU32(b, uint32(s.ChanSrc[i]))
		b = appendU32(b, uint32(s.ChanDst[i]))
		b = appendU64(b, math.Float64bits(s.ChanFreq[i]))
		b = appendU64(b, math.Float64bits(s.ChanMin[i]))
		b = appendU64(b, math.Float64bits(s.ChanMax[i]))
		b = appendU32(b, uint32(s.ChanBits[i]))
		b = appendU32(b, uint32(s.ChanTag[i]))
	}

	b = appendInts(b, s.OutStart)
	b = appendInts(b, s.OutChan)
	b = appendInts(b, s.InStart)
	b = appendInts(b, s.InChan)

	b = appendStrings(b, s.NodeNames)
	b = appendStrings(b, s.PortNames)
	b = appendStrings(b, s.CompNames)
	b = appendStrings(b, s.BusNames)
	b = appendStrings(b, s.TypeNames)
	return b, nil
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendU32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendInts(b []byte, vs []int32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(v))
	}
	return b
}

func appendFloats(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU64(b, math.Float64bits(v))
	}
	return b
}

func appendExtras(b []byte, vs []ExtraWeight) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(v.Node))
		b = appendU32(b, uint32(v.Type))
		b = appendU64(b, math.Float64bits(v.W))
	}
	return b
}

package core

import (
	"fmt"
	"sort"
	"strings"
)

// Partition maps functional objects to system components per §2.2: each
// behavior to a processor, each variable to a processor or memory, and each
// channel to a bus. The zero value is not usable; call NewPartition.
type Partition struct {
	g       *Graph
	bvComp  map[*Node]Component
	chanBus map[*Channel]*Bus
}

// NewPartition returns an empty partition over g.
func NewPartition(g *Graph) *Partition {
	return &Partition{
		g:       g,
		bvComp:  make(map[*Node]Component),
		chanBus: make(map[*Channel]*Bus),
	}
}

// Graph returns the graph the partition is over.
func (pt *Partition) Graph() *Graph { return pt.g }

// Assign maps a node to a component, replacing any previous mapping.
// Behaviors may only be assigned to processors.
func (pt *Partition) Assign(n *Node, c Component) error {
	if n.IsBehavior() {
		if _, ok := c.(*Processor); !ok {
			return fmt.Errorf("partition: behavior %q may only map to a processor, not %q", n.Name, c.CompName())
		}
	}
	pt.bvComp[n] = c
	return nil
}

// AssignChan maps a channel to a bus, replacing any previous mapping.
func (pt *Partition) AssignChan(c *Channel, b *Bus) { pt.chanBus[c] = b }

// BvComp implements GetBvComp(bv) of §3.1: the component the node is mapped
// to, or nil if unmapped.
func (pt *Partition) BvComp(n *Node) Component { return pt.bvComp[n] }

// ChanBus implements GetChanBus(c) of §3.1: the bus the channel is mapped
// to, or nil if unmapped.
func (pt *Partition) ChanBus(c *Channel) *Bus { return pt.chanBus[c] }

// BvIct implements GetBvIct(bv, pm) of §3.1: the node's ict weight on the
// component's type. The boolean reports whether a weight exists.
func (pt *Partition) BvIct(n *Node, c Component) (float64, bool) {
	v, ok := n.ICT[c.TypeKey()]
	return v, ok
}

// BvSize implements GetBvSize(bv, pm) of §3.3.
func (pt *Partition) BvSize(n *Node, c Component) (float64, bool) {
	v, ok := n.Size[c.TypeKey()]
	return v, ok
}

// NodesOn returns the nodes mapped to component c (the p.BV / m.V sets of
// §2.2), in graph insertion order.
func (pt *Partition) NodesOn(c Component) []*Node {
	var out []*Node
	for _, n := range pt.g.Nodes {
		if pt.bvComp[n] == c {
			out = append(out, n)
		}
	}
	return out
}

// ChansOn returns the channels mapped to bus b (the i.C set of §2.2).
func (pt *Partition) ChansOn(b *Bus) []*Channel {
	var out []*Channel
	for _, c := range pt.g.Channels {
		if pt.chanBus[c] == b {
			out = append(out, c)
		}
	}
	return out
}

// DstComp returns the component of a channel's destination, or nil when the
// destination is an external port (ports belong to no component).
func (pt *Partition) DstComp(c *Channel) Component {
	if n, ok := c.Dst.(*Node); ok {
		return pt.bvComp[n]
	}
	return nil
}

// CutChans implements CutChans(p) of §3.4: channels with exactly one
// endpoint on component c. Channels to external ports count as cut when
// their source is on c, since the port is outside every component.
func (pt *Partition) CutChans(c Component) []*Channel {
	var out []*Channel
	for _, ch := range pt.g.Channels {
		srcOn := pt.bvComp[ch.Src] == c
		dstOn := pt.DstComp(ch) == c
		if _, isPort := ch.Dst.(*Port); isPort {
			dstOn = false
		}
		if srcOn != dstOn {
			out = append(out, ch)
		}
	}
	return out
}

// CutBuses implements CutBuses(p) of §3.4: buses carrying at least one cut
// channel of component c. Each bus appears once.
func (pt *Partition) CutBuses(c Component) []*Bus {
	seen := map[*Bus]bool{}
	var out []*Bus
	for _, ch := range pt.CutChans(c) {
		b := pt.chanBus[ch]
		if b != nil && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// Validate checks the §2.2 proper-partition rules: every node is mapped to
// exactly one component of a legal class, and every channel is mapped to
// exactly one bus. All violations are reported, joined into one error.
func (pt *Partition) Validate() error {
	var probs []string
	for _, n := range pt.g.Nodes {
		c, ok := pt.bvComp[n]
		switch {
		case !ok || c == nil:
			probs = append(probs, fmt.Sprintf("node %q is unmapped", n.Name))
		case n.IsBehavior():
			if _, isP := c.(*Processor); !isP {
				probs = append(probs, fmt.Sprintf("behavior %q mapped to non-processor %q", n.Name, c.CompName()))
			}
		}
	}
	for _, ch := range pt.g.Channels {
		if pt.chanBus[ch] == nil {
			probs = append(probs, fmt.Sprintf("channel %s is unmapped", ch.Key()))
		}
	}
	// Stale mappings (nodes or channels not in the graph) indicate misuse.
	for n := range pt.bvComp {
		if pt.g.nodeByName[n.Name] != n {
			probs = append(probs, fmt.Sprintf("mapping for foreign node %q", n.Name))
		}
	}
	for ch := range pt.chanBus {
		if pt.g.chanByKey[ch.key()] != ch {
			probs = append(probs, fmt.Sprintf("mapping for foreign channel %s", ch.Key()))
		}
	}
	if len(probs) > 0 {
		sort.Strings(probs)
		return fmt.Errorf("partition: %s", strings.Join(probs, "; "))
	}
	return nil
}

// Clone returns an independent copy of the partition (same graph).
func (pt *Partition) Clone() *Partition {
	np := NewPartition(pt.g)
	for n, c := range pt.bvComp {
		np.bvComp[n] = c
	}
	for ch, b := range pt.chanBus {
		np.chanBus[ch] = b
	}
	return np
}

// String renders the partition as stable, diff-friendly text.
func (pt *Partition) String() string {
	var sb strings.Builder
	for _, c := range pt.g.Components() {
		names := make([]string, 0, 8)
		for _, n := range pt.NodesOn(c) {
			names = append(names, n.Name)
		}
		fmt.Fprintf(&sb, "%s: {%s}\n", c.CompName(), strings.Join(names, ", "))
	}
	for _, b := range pt.g.Buses {
		keys := make([]string, 0, 8)
		for _, ch := range pt.ChansOn(b) {
			keys = append(keys, ch.Key())
		}
		fmt.Fprintf(&sb, "%s: {%s}\n", b.Name, strings.Join(keys, ", "))
	}
	return sb.String()
}

// AllToProcessor maps every node to the processor and every channel to the
// bus — the canonical all-software starting point for partitioning.
func AllToProcessor(g *Graph, p *Processor, bus *Bus) *Partition {
	pt := NewPartition(g)
	for _, n := range g.Nodes {
		pt.bvComp[n] = p
	}
	for _, c := range g.Channels {
		pt.chanBus[c] = bus
	}
	return pt
}

// Package graphtest holds the graph oracles that the rebuild tests of
// several packages share.
package graphtest

import (
	"strings"
	"testing"

	"specsyn/internal/core"
)

// SameIndexes is the lookup-index oracle. A compiled snapshot is made from
// the slices alone and cannot see a stale index, so every lookup got serves —
// NodeByName, PortByName, FindChannel, BehChans, InChans — must agree with
// want's, by names and by channel keys in order, and must return the
// structs in got's own slices.
func SameIndexes(t testing.TB, got, want *core.Graph) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) || len(got.Ports) != len(want.Ports) || len(got.Channels) != len(want.Channels) {
		t.Fatalf("graph sizes differ: got %d/%d/%d nodes/ports/channels, want %d/%d/%d",
			len(got.Nodes), len(got.Ports), len(got.Channels), len(want.Nodes), len(want.Ports), len(want.Channels))
	}
	keys := func(cs []*core.Channel) string {
		var b strings.Builder
		for _, c := range cs {
			b.WriteString(c.Key())
			b.WriteByte(' ')
		}
		return b.String()
	}
	sameIn := func(name string) {
		if g, w := keys(got.InChans(name)), keys(want.InChans(name)); g != w {
			t.Fatalf("InChans(%s) = [%s], want [%s]", name, g, w)
		}
	}
	for i, n := range want.Nodes {
		gn := got.NodeByName(n.Name)
		if gn == nil || gn != got.Nodes[i] {
			t.Fatalf("NodeByName(%s) does not serve node %d of the graph", n.Name, i)
		}
		if g, w := keys(got.BehChans(gn)), keys(want.BehChans(n)); g != w {
			t.Fatalf("BehChans(%s) = [%s], want [%s]", n.Name, g, w)
		}
		sameIn(n.Name)
	}
	for i, p := range want.Ports {
		if gp := got.PortByName(p.Name); gp == nil || gp != got.Ports[i] {
			t.Fatalf("PortByName(%s) does not serve port %d of the graph", p.Name, i)
		}
		sameIn(p.Name)
	}
	for i, c := range want.Channels {
		if got.FindChannel(c.Src.Name, c.Dst.EndpointName()) != got.Channels[i] {
			t.Fatalf("FindChannel(%s) does not serve channel %d of the graph", c.Key(), i)
		}
	}
}

// Bytes is the byte-identity oracle: the compiled snapshot of g without
// its allocation, so a reloaded session's graph compares with a fresh
// build of the same source.
func Bytes(t testing.TB, g *core.Graph) []byte {
	t.Helper()
	s, err := core.Compile(g.Clone(false))
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

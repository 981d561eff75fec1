// This file implements the incremental, edit-aware rebuild of the SLIF
// graph. A source edit during interactive system design typically touches
// one behavior; re-running the whole pipeline (parse → elaborate → six
// passes) for every keystroke wastes nearly all of its work. Rebuild
// instead diffs the previous and new sources at design-unit granularity via
// AST content fingerprints (internal/vhdl.Fingerprint) and runs the build
// pipeline with just the changed units and their dependents as its fresh
// set, making a new graph that shares every other node, port and channel
// with the previous one. The previous graph is never written — concurrent
// readers (estimators, partition searches) keep a consistent view — and
// the result is byte-identical, in compiled snapshot form, to a
// from-scratch Build of the new source.
//
// Anything the unit diff cannot localize falls back to a full Build with
// the reason recorded in the Delta: a change to the architecture context
// (ports, arch-level declarations), any change to the unit or object
// sequence (add/remove/rename/reorder, signature or type edits, implicit
// symbols appearing or vanishing), ambiguous duplicate unit paths, or a
// previous graph whose nodes are not laid out as Build lays them out (a
// transform made it).

package builder

import (
	"fmt"
	"sort"
	"strings"

	"specsyn/internal/core"
	"specsyn/internal/sem"
	"specsyn/internal/vhdl"
)

// Delta reports what a Rebuild did.
type Delta struct {
	// Changed lists the behaviors (by SLIF node name) whose unit
	// fingerprint differed between the two sources.
	Changed []string
	// Dependents lists the behaviors re-processed without a fingerprint
	// change of their own: lexical descendants of a changed unit (their
	// meaning can depend on the parent's declarations) and transitive
	// callers (their operation counts inline callee bodies).
	Dependents []string
	// Full marks a fall-back to a from-scratch Build, with Reason saying
	// why the edit could not be localized.
	Full   bool
	Reason string
}

// Empty reports whether the rebuild found no semantic change at all — the
// previous graph was returned unmodified (comment or formatting edits).
func (d Delta) Empty() bool {
	return !d.Full && len(d.Changed) == 0 && len(d.Dependents) == 0
}

// FrontEnd is the front end of one source text as the next rebuild against
// it reads it: the text, its elaborated design and its unit fingerprints,
// but not its parse tree. A session keeps the value of its current source
// and hands it to RebuildFrom with the next edit, so a reload runs the
// front end on the new source only. The value is immutable once made.
type FrontEnd struct {
	src string
	d   *sem.Design
	fp  *vhdl.DesignFP // nil in a value made by FromDesign
}

// parse runs the parser and elaborator on src.
func parse(src string) (*vhdl.DesignFile, *sem.Design, error) {
	df, err := vhdl.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	d, err := sem.Elaborate(df)
	if err != nil {
		return nil, nil, err
	}
	return df, d, nil
}

// NewFrontEnd parses, elaborates and fingerprints src.
func NewFrontEnd(src string) (*FrontEnd, error) {
	df, d, err := parse(src)
	if err != nil {
		return nil, err
	}
	return &FrontEnd{src: src, d: d, fp: vhdl.Fingerprint(df)}, nil
}

// FromDesign wraps the design a cold build elaborated from src, without
// fingerprints: a build that is never reloaded pays nothing for the
// rebuild. The first rebuild against the value parses src again to take
// them.
func FromDesign(src string, d *sem.Design) *FrontEnd {
	return &FrontEnd{src: src, d: d}
}

// Source returns the text fe was made from.
func (fe *FrontEnd) Source() string { return fe.src }

// Design returns the design elaborated from fe's source.
func (fe *FrontEnd) Design() *sem.Design { return fe.d }

// fingerprinted returns fe with its fingerprints: fe itself, or for a
// value made by FromDesign a fingerprinted copy, leaving fe unchanged; nil
// if fe's source does not parse.
func (fe *FrontEnd) fingerprinted() *FrontEnd {
	if fe.fp != nil {
		return fe
	}
	df, err := vhdl.Parse(fe.src)
	if err != nil {
		return nil
	}
	return &FrontEnd{src: fe.src, d: fe.d, fp: vhdl.Fingerprint(df)}
}

// Frontend returns the parsed and elaborated form of src.
func Frontend(src string) (*vhdl.DesignFile, *sem.Design, error) {
	return parse(src)
}

// Rebuild is RebuildFrom for a caller that holds only prev's source text:
// it runs the front end on both sources.
func Rebuild(prev *core.Graph, prevSrc, newSrc string, opts Options) (*core.Graph, Delta, error) {
	var prevFE *FrontEnd
	if prev != nil {
		prevFE, _ = NewFrontEnd(prevSrc) // nil: rebuilds fully
	}
	g, _, delta, err := RebuildFrom(prev, prevFE, newSrc, opts)
	return g, delta, err
}

// RebuildFrom builds the SLIF graph of newSrc, reusing prev — the graph
// built with the same Options from the source prevFE was made from —
// wherever the edit did not reach. It returns the graph, the front end of
// newSrc for the next rebuild, and what it did. Three outcomes, reported
// in the Delta:
//
//   - no semantic change: prev itself is returned (pointer-equal), Delta
//     empty; the returned front end keeps prevFE's design, which matches
//     prev;
//   - localized edit: a new graph with only the changed behaviors and
//     their dependents re-extracted, sharing every other struct with prev;
//     prev is not mutated;
//   - anything else, including a nil prev or prevFE: a from-scratch Build,
//     Delta.Full set with the reason.
//
// In every case the result is byte-identical (core.Compile + MarshalBinary)
// to Build of the new source, in the pre-allocation form Build produces:
// component sets on prev (an applied allocation) are ignored, never copied,
// and never mutated — re-apply the allocation to the result.
func RebuildFrom(prev *core.Graph, prevFE *FrontEnd, newSrc string, opts Options) (*core.Graph, *FrontEnd, Delta, error) {
	newFE, err := NewFrontEnd(newSrc)
	if err != nil {
		return nil, nil, Delta{}, err
	}
	g, delta, err := rebuild(prev, prevFE, newFE, opts)
	if err != nil {
		return nil, nil, Delta{}, err
	}
	if delta.Empty() {
		newFE = &FrontEnd{src: newSrc, d: prevFE.d, fp: newFE.fp}
	}
	return g, newFE, delta, nil
}

// rebuild is RebuildFrom once the new source's front end has run.
func rebuild(prev *core.Graph, prevFE, newFE *FrontEnd, opts Options) (*core.Graph, Delta, error) {
	if prev == nil {
		return rebuildFull(newFE, opts, "no previous graph")
	}
	if prevFE != nil {
		prevFE = prevFE.fingerprinted()
	}
	if prevFE == nil {
		return rebuildFull(newFE, opts, "previous source no longer parses")
	}
	if reason := structureChanged(prevFE, newFE); reason != "" {
		return rebuildFull(newFE, opts, reason)
	}

	// Unit-level diff. The two fingerprint unit sequences are now known to
	// agree path-for-path, so changed units are found positionally.
	changed := make(map[string]bool)
	for i, u := range newFE.fp.Units {
		if prevFE.fp.Units[i].Hash != u.Hash {
			changed[u.Path] = true
		}
	}
	if len(changed) == 0 {
		return prev, Delta{}, nil
	}
	if !builderForm(prev, newFE.d) {
		return rebuildFull(newFE, opts, "previous graph not in builder form")
	}
	affectedPath := func(path string) bool {
		if changed[path] {
			return true
		}
		for cp := range changed {
			if strings.HasPrefix(path, cp+"/") {
				return true
			}
		}
		return false
	}

	// Map the new design's behaviors onto unit paths. Every non-implicit
	// behavior must have a fingerprinted unit; a mismatch means the lexical
	// naming schemes disagree and the edit cannot be trusted to localize.
	var delta Delta
	affected := make(map[string]bool)
	byID := make(map[string]*sem.Behavior, len(newFE.d.Behaviors))
	for _, b := range newFE.d.Behaviors {
		byID[b.UniqueID] = b
		if b.Implicit {
			continue
		}
		path := behaviorPath(b)
		if _, ok := newFE.fp.Lookup(path); !ok {
			return rebuildFull(newFE, opts, fmt.Sprintf("behavior %s has no fingerprinted unit", b.UniqueID))
		}
		if affectedPath(path) {
			affected[b.UniqueID] = true
			if changed[path] {
				delta.Changed = append(delta.Changed, b.UniqueID)
			} else {
				delta.Dependents = append(delta.Dependents, b.UniqueID)
			}
		}
	}

	// Pull in transitive callers via the previous graph's access relation:
	// a behavior with a channel into an affected behavior inlines its
	// operation counts (internal/synth) and must be re-weighted too.
	queue := make([]string, 0, len(affected))
	for id := range affected {
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range prev.InChans(id) {
			caller := c.Src.Name
			if affected[caller] {
				continue
			}
			if byID[caller] == nil {
				return rebuildFull(newFE, opts, fmt.Sprintf("caller %s not in new design", caller))
			}
			affected[caller] = true
			delta.Dependents = append(delta.Dependents, caller)
			queue = append(queue, caller)
		}
	}
	sort.Strings(delta.Changed)
	sort.Strings(delta.Dependents)

	st := newBuildState(newFE.d, opts)
	st.prev, st.affected = prev, affected
	g, err := st.run()
	if err != nil {
		return nil, Delta{}, err
	}
	return g, delta, nil
}

// builderForm reports whether g's ports are d's ports and g's nodes are
// d's behaviors then d's objects, by name and in order, as Build lays them
// out. The pipeline finds each shared port and node by that position, and
// the caller closure reads prev's access relation. A transform (xform's
// inline or merge) breaks the layout, and the graph it returns is no
// build of any source, so no localized rebuild may start from it.
func builderForm(g *core.Graph, d *sem.Design) bool {
	if len(g.Ports) != len(d.Ports) || len(g.Nodes) != len(d.Behaviors)+len(d.Objects) {
		return false
	}
	for i, p := range d.Ports {
		if g.Ports[i].Name != p.Name {
			return false
		}
	}
	for i, b := range d.Behaviors {
		if g.Nodes[i].Name != b.UniqueID {
			return false
		}
	}
	for i, o := range d.Objects {
		if g.Nodes[len(d.Behaviors)+i].Name != o.UniqueID {
			return false
		}
	}
	return true
}

// rebuildFull is the fall-back: a from-scratch Build of the new source.
func rebuildFull(fe *FrontEnd, opts Options, reason string) (*core.Graph, Delta, error) {
	g, err := Build(fe.d, opts)
	if err != nil {
		return nil, Delta{}, err
	}
	return g, Delta{Full: true, Reason: reason}, nil
}

// behaviorPath is the lexical path of an elaborated behavior, matching the
// paths internal/vhdl.Fingerprint assigns to AST units: enclosing names
// joined with slashes. Both sides name unlabeled processes by the parser's
// synthesized label, so the schemes agree by construction.
func behaviorPath(b *sem.Behavior) string {
	if b.Parent == nil {
		return b.Name
	}
	return behaviorPath(b.Parent) + "/" + b.Name
}

// structureChanged reports (as a non-empty reason) every condition under
// which the unit diff cannot localize the edit and Rebuild must fall back
// to a full build.
func structureChanged(prev, next *FrontEnd) string {
	if prev.fp.Context != next.fp.Context {
		return "architecture context changed"
	}
	if len(prev.fp.Units) != len(next.fp.Units) {
		return "design unit added or removed"
	}
	for i, u := range next.fp.Units {
		if prev.fp.Units[i].Path != u.Path {
			return fmt.Sprintf("design unit %s renamed or moved", prev.fp.Units[i].Path)
		}
		// A duplicate path carries a "#n" disambiguator; positional
		// matching across edits is not safe for those.
		if strings.Contains(u.Path, "#") {
			return fmt.Sprintf("duplicate unit path %s", u.Path)
		}
	}

	// The elaborated element sequences must agree on everything the kept
	// annotations depend on: any add/remove/rename/reorder, signature or
	// type change, or implicit symbol appearing/vanishing defeats reuse.
	pd, nd := prev.d, next.d
	if pd.Name != nd.Name || pd.ArchName != nd.ArchName {
		return "entity or architecture renamed"
	}
	if len(pd.Ports) != len(nd.Ports) {
		return "port added or removed"
	}
	for i, p := range nd.Ports {
		q := pd.Ports[i]
		if p.Name != q.Name || p.Dir != q.Dir || p.Type.AccessBits() != q.Type.AccessBits() {
			return fmt.Sprintf("port %s changed", q.Name)
		}
	}
	if len(pd.Behaviors) != len(nd.Behaviors) {
		return "behavior added or removed"
	}
	for i, b := range nd.Behaviors {
		q := pd.Behaviors[i]
		if b.Name != q.Name || b.UniqueID != q.UniqueID ||
			b.IsProcess != q.IsProcess || b.IsFunction != q.IsFunction ||
			b.Implicit != q.Implicit || b.ParamBits() != q.ParamBits() {
			return fmt.Sprintf("behavior %s changed shape", q.UniqueID)
		}
	}
	if len(pd.Objects) != len(nd.Objects) {
		return "object added or removed"
	}
	for i, o := range nd.Objects {
		q := pd.Objects[i]
		if o.Name != q.Name || o.UniqueID != q.UniqueID || o.Class != q.Class ||
			o.Implicit != q.Implicit || o.IsParam != q.IsParam ||
			ownerID(o) != ownerID(q) ||
			o.Type.AccessBits() != q.Type.AccessBits() || o.Type.TotalBits() != q.Type.TotalBits() {
			return fmt.Sprintf("object %s changed shape", q.UniqueID)
		}
	}
	return ""
}

func ownerID(o *sem.Object) string {
	if o.Owner == nil {
		return ""
	}
	return o.Owner.UniqueID
}

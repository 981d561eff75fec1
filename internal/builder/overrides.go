package builder

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"specsyn/internal/core"
)

// Overrides is a set of designer weight overrides: explicit ict or size
// values that replace the synthesized annotations of named nodes on named
// component types. This is the paper's escape hatch from pre-synthesis —
// a designer who already knows a behavior's measured time on a component
// pins it directly (the Figure 3 Convolve values, for instance).
//
// File format (one record per line, '#' comments):
//
//	ict  <node> <comptype> <value>
//	size <node> <comptype> <value>
type Overrides struct {
	entries []override
}

type override struct {
	kind  string // "ict" or "size"
	node  string
	tech  string
	value float64
}

// Len returns the number of override records.
func (o *Overrides) Len() int {
	if o == nil {
		return 0
	}
	return len(o.entries)
}

// Set appends one override record programmatically. kind is "ict" or
// "size".
func (o *Overrides) Set(kind, node, tech string, value float64) error {
	if kind != "ict" && kind != "size" {
		return fmt.Errorf("overrides: unknown kind %q (want ict or size)", kind)
	}
	o.entries = append(o.entries, override{kind: kind, node: node, tech: tech, value: value})
	return nil
}

// ParseOverrides reads an override file.
func ParseOverrides(r io.Reader) (*Overrides, error) {
	o := &Overrides{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		f := strings.Fields(text)
		if f[0] != "ict" && f[0] != "size" {
			return nil, fmt.Errorf("overrides: line %d: unknown record %q (want ict or size)", line, f[0])
		}
		if len(f) != 4 {
			return nil, fmt.Errorf("overrides: line %d: want '%s <node> <comptype> <value>'", line, f[0])
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("overrides: line %d: bad value %q", line, f[3])
		}
		o.entries = append(o.entries, override{kind: f[0], node: strings.ToLower(f[1]), tech: f[2], value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return o, nil
}

// LoadOverrides reads an override file from disk.
func LoadOverrides(path string) (*Overrides, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseOverrides(f)
}

// apply pins the overrides on s's fresh nodes; prev's nodes carry theirs
// over. Referencing a node the specification does not declare is an
// error — a silently ignored override is a mis-estimated design.
func (o *Overrides) apply(s *state) error {
	for _, e := range o.entries {
		n, _ := s.ends[e.node].(*core.Node)
		if n == nil {
			return fmt.Errorf("overrides: unknown node %q", e.node)
		}
		if !s.fresh(e.node) {
			continue
		}
		if e.kind == "ict" {
			n.SetICT(e.tech, e.value)
		} else {
			n.SetSize(e.tech, e.value)
		}
	}
	return nil
}

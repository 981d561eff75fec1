// Package profile implements branch-probability files and the expected
// access-count engine of §2.4.1: the accfreq (and accmin/accmax) weight of
// each SLIF channel is the number of times the access occurs during an
// average start-to-finish execution of the source behavior, "as determined
// from a branch probability file ... obtained manually or through
// profiling".
//
// Profile file format (one record per line, '#' comments):
//
//	<behavior>.br<N>   <p1> [p2 ...]   # probabilities of branch site N's arms
//	<behavior>.loop<N> <count> [max]   # iteration count of loop site N
//	defaultloop <count>
//
// Branch and loop sites are numbered per behavior in source (pre-order)
// order, starting at 1. An if with e elsif arms and an else has e+2 arms;
// a case has one arm per when clause. Missing branch records default to
// uniform arm probabilities; missing loop records default to the file's
// defaultloop (1 if unset). For-loops with static bounds never consult the
// profile — their counts are exact.
package profile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Profile holds branch probabilities and loop iteration counts.
type Profile struct {
	branch      map[string][]float64
	loop        map[string]float64
	loopMax     map[string]float64
	DefaultLoop float64
}

// Record kinds, as they appear between behavior and site in a key.
const (
	branchKind = ".br"
	loopKind   = ".loop"
)

// appendKey appends the record key of site n of behavior beh: the
// behavior's lower-cased name, the kind and the site number. Lookups build
// it in a stack buffer and index the maps with string(key), which does not
// allocate.
func appendKey(buf []byte, beh, kind string, n int) []byte {
	start := len(buf)
	for i := 0; i < len(beh); i++ {
		c := beh[i]
		if c >= utf8.RuneSelf {
			buf = append(buf[:start], strings.ToLower(beh)...)
			break
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	buf = append(buf, kind...)
	return strconv.AppendInt(buf, int64(n), 10)
}

// Empty returns a profile with no records: uniform branches, 1-iteration
// dynamic loops.
func Empty() *Profile {
	return &Profile{
		branch:      make(map[string][]float64),
		loop:        make(map[string]float64),
		loopMax:     make(map[string]float64),
		DefaultLoop: 1,
	}
}

// SetBranch records the arm probabilities of branch site n of behavior beh.
func (p *Profile) SetBranch(beh string, n int, probs ...float64) {
	p.branch[string(appendKey(nil, beh, branchKind, n))] = probs
}

// SetLoop records the expected (and optionally maximum) iteration count of
// dynamic-loop site n of behavior beh.
func (p *Profile) SetLoop(beh string, n int, count float64, maxCount ...float64) {
	key := string(appendKey(nil, beh, loopKind, n))
	p.loop[key] = count
	if len(maxCount) > 0 {
		p.loopMax[key] = maxCount[0]
	}
}

// Branch returns the probability of arm (0-based) of branch site n of
// behavior beh, defaulting to 1/arms when unrecorded. Recorded
// probabilities are normalized over the arms they cover; arms beyond the
// recorded list share the remainder uniformly.
func (p *Profile) Branch(beh string, n, arm, arms int) float64 {
	if arms <= 0 {
		return 1
	}
	var buf [64]byte
	probs, ok := p.branch[string(appendKey(buf[:0], beh, branchKind, n))]
	if !ok || len(probs) == 0 {
		return 1 / float64(arms)
	}
	if arm < len(probs) {
		return probs[arm]
	}
	var sum float64
	for _, q := range probs {
		sum += q
	}
	rest := arms - len(probs)
	if rest <= 0 {
		return 0
	}
	rem := 1 - sum
	if rem < 0 {
		rem = 0
	}
	return rem / float64(rest)
}

// Loop returns the expected and maximum iteration counts of dynamic-loop
// site n of behavior beh.
func (p *Profile) Loop(beh string, n int) (avg, maxCount float64) {
	var buf [64]byte
	key := appendKey(buf[:0], beh, loopKind, n)
	avg, ok := p.loop[string(key)]
	if !ok {
		avg = p.DefaultLoop
	}
	maxCount, ok = p.loopMax[string(key)]
	if !ok {
		maxCount = avg
	}
	return avg, maxCount
}

// Parse reads a profile file.
func Parse(r io.Reader) (*Profile, error) {
	p := Empty()
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
		if f[0] == "defaultloop" {
			if len(f) != 2 {
				return nil, fmt.Errorf("profile: line %d: malformed defaultloop", line)
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: %v", line, err)
			}
			p.DefaultLoop = v
			continue
		}
		key := strings.ToLower(f[0])
		vals := make([]float64, 0, len(f)-1)
		for _, s := range f[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad number %q", line, s)
			}
			vals = append(vals, v)
		}
		switch {
		case strings.Contains(key, branchKind):
			if len(vals) == 0 {
				return nil, fmt.Errorf("profile: line %d: branch record needs probabilities", line)
			}
			for _, v := range vals {
				if v < 0 || v > 1 {
					return nil, fmt.Errorf("profile: line %d: probability %g out of [0,1]", line, v)
				}
			}
			p.branch[key] = vals
		case strings.Contains(key, loopKind):
			if len(vals) == 0 || len(vals) > 2 {
				return nil, fmt.Errorf("profile: line %d: loop record needs count [max]", line)
			}
			p.loop[key] = vals[0]
			p.loopMax[key] = vals[len(vals)-1]
		default:
			return nil, fmt.Errorf("profile: line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// Dump writes the profile in the file format Parse reads, sorted for
// stable diffs. Parse(Dump(p)) reproduces p's records.
func (p *Profile) Dump(w io.Writer) error {
	var lines []string
	for key, probs := range p.branch {
		parts := make([]string, 0, len(probs)+1)
		parts = append(parts, key)
		for _, v := range probs {
			parts = append(parts, strconv.FormatFloat(v, 'g', -1, 64))
		}
		lines = append(lines, strings.Join(parts, " "))
	}
	for key, count := range p.loop {
		line := key + " " + strconv.FormatFloat(count, 'g', -1, 64)
		if maxV, ok := p.loopMax[key]; ok && maxV != count {
			line += " " + strconv.FormatFloat(maxV, 'g', -1, 64)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	if p.DefaultLoop != 1 {
		lines = append([]string{"defaultloop " + strconv.FormatFloat(p.DefaultLoop, 'g', -1, 64)}, lines...)
	}
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a profile file from disk.
func Load(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

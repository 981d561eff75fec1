package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json the comparison and the tests read.
type benchDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// quartiles are the first quartile, median and third quartile, computed as
// Python's statistics.quantiles(values, n=4) does (its default exclusive
// method), so the numbers match the ones the acceptance rule uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// row is one (workload, metric) line of a comparison.
type row struct {
	workload, metric string
	aQ1, aMed, aQ3   float64
	bQ1, bMed, bQ3   float64
	change           float64 // (B − A) / A, by medians
	win              float64 // share of alternating pairs B wins
	pairs            int
	verdict          string
	bound            float64
	lowerIsBetter    bool
	aValues, bValues []float64
}

// compareResults judges B against A for every end-to-end metric of every
// workload both sides ran:
//   - unresolved: A's own quartile spread is wider than the bound, unless
//     every B run is better than every A run (then improved);
//   - regressed: B's median is worse than A's by more than the bound;
//   - improved: over at least minPairs pairs, B wins at least 90% and the
//     medians differ by more than A's quartile spread;
//   - unchanged otherwise.
func compareResults(def *benchDef, a, b []*result) []row {
	byWorkload := func(rs []*result) map[string][]*result {
		out := map[string][]*result{}
		for _, r := range rs {
			if r.Correct && !r.Provenance.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	aw, bw := byWorkload(a), byWorkload(b)
	var rows []row
	for _, wl := range sortedKeys(aw) {
		if len(bw[wl]) == 0 {
			continue
		}
		for _, mdef := range def.EndToEnd {
			r := row{workload: wl, metric: mdef.Name, bound: mdef.Bound, lowerIsBetter: mdef.Better != "higher"}
			for _, res := range aw[wl] {
				if mt, ok := res.Metrics[mdef.Name]; ok {
					r.aValues = append(r.aValues, mt.Value)
				}
			}
			for _, res := range bw[wl] {
				if mt, ok := res.Metrics[mdef.Name]; ok {
					r.bValues = append(r.bValues, mt.Value)
				}
			}
			if len(r.aValues) == 0 || len(r.bValues) == 0 {
				continue
			}
			r.judge()
			rows = append(rows, r)
		}
	}
	return rows
}

func (r *row) judge() {
	r.aQ1, r.aMed, r.aQ3 = quartiles(r.aValues)
	r.bQ1, r.bMed, r.bQ3 = quartiles(r.bValues)
	better := func(x, y float64) bool { // x better than y
		if r.lowerIsBetter {
			return x < y
		}
		return x > y
	}
	r.pairs = min(len(r.aValues), len(r.bValues))
	wins := 0
	for i := 0; i < r.pairs; i++ {
		if better(r.bValues[i], r.aValues[i]) {
			wins++
		}
	}
	r.win = float64(wins) / float64(r.pairs)
	r.change = (r.bMed - r.aMed) / r.aMed
	worse := r.change
	if !r.lowerIsBetter {
		worse = -worse
	}
	allBetter := true
	for _, bv := range r.bValues {
		for _, av := range r.aValues {
			if !better(bv, av) {
				allBetter = false
			}
		}
	}
	spread := (r.aQ3 - r.aQ1) / r.aMed
	switch {
	case spread > r.bound && allBetter:
		r.verdict = "improved"
	case spread > r.bound:
		r.verdict = "unresolved"
	case worse > r.bound:
		r.verdict = "regressed"
	case r.pairs >= minPairs && r.win >= 0.9 && better(r.bMed, r.aMed) && math.Abs(r.bMed-r.aMed) > r.aQ3-r.aQ1:
		r.verdict = "improved"
	default:
		r.verdict = "unchanged"
	}
}

func loadResults(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// runCompare implements --compare A1.json ... -- B1.json ...: list the
// parent's runs before "--" and the change's after it, in the order they
// ran, so run i of each side forms an alternating pair.
func runCompare(benchPath string, args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: --compare A1.json ... -- B1.json ...")
		return 2
	}
	def, err := readBenchDef(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := loadResults(args[:split])
	if err == nil {
		var b []*result
		b, err = loadResults(args[split+1:])
		if err == nil {
			return printComparison(compareResults(def, a, b), stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func printComparison(rows []row, stdout io.Writer) int {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Fprintf(stdout, "%-14s %-16s %32s %32s %8s %6s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B win", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-14s %-16s %32s %32s %+7.1f%% %5.0f%% %5.0f%%  %s\n",
			r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.aMed, r.aQ1, r.aQ3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.bMed, r.bQ1, r.bQ3),
			100*r.change, 100*r.win, 100*r.bound, r.verdict)
		if r.verdict == "regressed" {
			code = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "no workload has correct untraced results on both sides")
		return 1
	}
	return code
}

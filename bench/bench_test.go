package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The smoke tests run each workload for a fraction of a second, in this
// process. Run them from this directory: go test ./...

func benchDefinition(t *testing.T) *benchDef {
	t.Helper()
	def, err := readBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// and checks that all checks pass and that the result carries exactly the
// metrics BENCHMARK.json names, each with its unit and a finite value.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	def := benchDefinition(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, default --seconds %d", def.RunSeconds, defaultSeconds)
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, mt := range def.EndToEnd {
		e2e[mt.Name] = mt.Unit
	}
	for _, mt := range def.PerLayer {
		layers[mt.Name] = mt.Unit
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 0.6, trace: traced, testdata: "../testdata"}
				var tr *tracer
				want := e2e
				if traced {
					tr, want = newTracer(), layers
				}
				res, err := runWorkload(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("checks failed: %v", res.Problems)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				for mname, unit := range want {
					got, ok := res.Metrics[mname]
					switch {
					case !ok:
						t.Errorf("metric %s missing", mname)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", mname, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", mname, got.Value)
					}
				}
				for mname := range res.Metrics {
					if _, ok := want[mname]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", mname)
					}
				}
				var out, errOut bytes.Buffer
				if code := report(res, &out, &errOut); code != 0 {
					t.Fatalf("report exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
					t.Errorf("last line %q is not the result object", last)
				}
			})
		}
	}
}

// TestInputsFollowTheSeed checks that the seed alone decides the generated
// inputs: the same seed gives byte-identical edit sources, arrival schedule
// and job list, and another seed gives different ones.
func TestInputsFollowTheSeed(t *testing.T) {
	sub, err := loadSubject("../testdata", "fuzzy")
	if err != nil {
		t.Fatal(err)
	}
	edits := func(seed int64) string {
		ed, err := newEditor("fuzzy", sub.src, seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 30; i++ {
			src, kind := ed.next()
			fmt.Fprintf(&b, "%s\n%s\n", kind, src)
		}
		return b.String()
	}
	schedule := func(seed int64) string {
		ed, err := newEditor("fuzzy", sub.src, seed)
		if err != nil {
			t.Fatal(err)
		}
		var ring [][]byte
		for i := 0; i < 4; i++ {
			src, _ := ed.next()
			ring = append(ring, []byte(src))
		}
		x := &mix{rng: rand.New(rand.NewSource(seed)), nodes: [][]string{{"a", "b", "c"}},
			rings: [][][]byte{ring}, pos: make([]int, 1)}
		var b strings.Builder
		for _, r := range x.schedule(3) {
			fmt.Fprintf(&b, "%d %s %d %v %s\n", r.due, r.route, r.design, r.sample, r.body)
		}
		return b.String()
	}
	jobs := func(seed int64) string { return fmt.Sprint(exploreJobs(seed, 0, 4), exploreJobs(seed, 1, 4)) }
	for name, gen := range map[string]func(int64) string{"edits": edits, "schedule": schedule, "jobs": jobs} {
		if gen(5) != gen(5) {
			t.Errorf("%s: the same seed gives different inputs", name)
		}
		if gen(5) == gen(6) {
			t.Errorf("%s: different seeds give the same inputs", name)
		}
	}
}

// TestCompareFlagsRegressions checks that --compare accepts a change whose
// results equal the parent's and flags one that is slower.
func TestCompareFlagsRegressions(t *testing.T) {
	def := benchDefinition(t)
	results := func(scale float64) []*result {
		var out []*result
		for i := 0; i < 10; i++ {
			r := &result{Workload: "fig4-cold", Correct: true, Metrics: map[string]metric{}}
			for _, mt := range def.EndToEnd {
				v := 100 * (1 + 0.002*float64(i%3))
				if mt.Better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
				r.Metrics[mt.Name] = metric{Value: v, Unit: mt.Unit}
			}
			out = append(out, r)
		}
		return out
	}
	same := compareResults(def, results(1), results(1))
	if len(same) != len(def.EndToEnd) {
		t.Fatalf("%d rows, want %d", len(same), len(def.EndToEnd))
	}
	for _, r := range same {
		if r.verdict != "unchanged" {
			t.Errorf("identical results: %s is %s", r.metric, r.verdict)
		}
	}
	var out bytes.Buffer
	if code := printComparison(same, &out); code != 0 {
		t.Errorf("identical results exit %d", code)
	}
	worse := compareResults(def, results(1), results(1.5))
	for _, r := range worse {
		if r.verdict != "regressed" {
			t.Errorf("50%% worse: %s is %s", r.metric, r.verdict)
		}
	}
	if code := printComparison(worse, &out); code == 0 {
		t.Error("a regression exits 0")
	}
	for _, r := range compareResults(def, results(1), results(0.7)) {
		if r.verdict != "improved" {
			t.Errorf("30%% better over 10 pairs: %s is %s", r.metric, r.verdict)
		}
	}
	for _, r := range compareResults(def, results(1)[:3], results(0.7)[:3]) {
		if r.verdict == "improved" {
			t.Errorf("3 pairs: %s claims a gain", r.metric)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25].
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// Command bench is the specsyn benchmark. Four workloads together exercise
// every module from VHDL text to HTTP response:
//
//	fig4-cold      cold Env.Build from source, then Env.Estimate (Fig. 4)
//	edit-loop      Env.Reload of seeded edits, then Env.Estimate
//	explore-batch  batches of partition searches on built designs
//	serve-open     open-loop HTTP traffic against an in-process daemon
//
// Run from the repository root:
//
//	bash bench/run.sh --workload fig4-cold --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --compare a1.json a2.json -- b1.json b2.json
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) times the calls into each layer and reports per-layer
// metrics. Every run prints "<workload> <metric> <value> <unit>" lines and,
// last, one JSON object with the keys correct, attempted, failed and
// metrics. A failed correctness check exits nonzero and reports no metrics.
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"fig4-cold", "edit-loop", "explore-batch", "serve-open"}

// defaultSeconds is the measured time of one run when --seconds is absent;
// BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 25

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow first setup does not decide the metric.
const setupRepeats = 5

// metric is one reported number. Timing metrics also carry the median, p99
// and sample count of the samples they summarize.
type metric struct {
	Name   string  `json:"-"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Median float64 `json:"median,omitempty"`
	P99    float64 `json:"p99,omitempty"`
}

func m(name, unit string, v float64) metric { return metric{Name: name, Value: v, Unit: unit} }

// phase is what one measured stretch of a workload produced.
type phase struct {
	attempted, failed int
	e2e               []metric // op_p50_ms, tail_ms, ops_per_s, estimate_p50_us
	counts            []metric // per-layer counts and ratios only this workload measures
	detail            []metric // per-subject and per-layer timings, printed but not tracked
	problems          []string // correctness failures found while measuring
}

func (p *phase) primary() float64 { return p.e2e[0].Value }

func (p *phase) problem(format string, args ...any) {
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one of the benchmark's four workloads.
type workload interface {
	// setup generates the inputs from the seed and builds the initial
	// state, replacing whatever an earlier call left.
	setup(tr *tracer) error
	// measure runs operations for about d. A nil tracer means untraced.
	measure(d time.Duration, tr *tracer) *phase
	// check runs the correctness checks that need the whole run's state.
	check(tr *tracer) []string
	close()
	// params describes the workload's fixed sizes, for the result file.
	params() map[string]any
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	testdata string
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "fig4-cold":
		return &fig4{cfg: cfg}, nil
	case "edit-loop":
		return &editLoop{cfg: cfg}, nil
	case "explore-batch":
		return &explore{cfg: cfg}, nil
	case "serve-open":
		return &serveOpen{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadNames, ", "))
}

// provenance records where and how a result was measured.
type provenance struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	OS         string         `json:"os"`
	Arch       string         `json:"arch"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
	StartUTC   string         `json:"start_utc"`
}

// result is one run's outcome, as written by --out and read by --compare.
type result struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]metric `json:"detail,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
	Provenance provenance        `json:"provenance"`

	order []string // metric and detail names in report order
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	spansPath := fs.String("spans", "", "with --trace 1, write every span as JSON to this file")
	outPath := fs.String("out", "", "write the JSON result file here (with all, one file per workload: NAME.<workload>.json)")
	testdata := fs.String("testdata", "testdata", "directory holding the example specifications")
	compare := fs.Bool("compare", false, "compare result files: --compare A1.json ... -- B1.json ...")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds, for --compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(*benchJSON, fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	if *workloadName == "all" {
		return runAll(args, *outPath, stdout, stderr)
	}
	cfg := config{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1, testdata: *testdata}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res, err := runWorkload(cfg, tr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *spansPath != "" && tr != nil {
		if err := tr.writeFile(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return report(res, stdout, stderr)
}

// runAll runs every workload in a process of its own, so peak memory and
// garbage-collector state stay per workload.
func runAll(args []string, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base := stripFlags(args, "workload", "out")
	code := 0
	for _, w := range workloadNames {
		child := append([]string{"--workload", w}, base...)
		if outPath != "" {
			child = append(child, "--out", strings.TrimSuffix(outPath, ".json")+"."+w+".json")
		}
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// stripFlags removes the named flags (and their values) from args.
func stripFlags(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(a, "=")
		drop := false
		for _, n := range names {
			if strings.HasPrefix(args[i], "-") && name == n {
				drop = true
			}
		}
		if !drop {
			out = append(out, args[i])
			continue
		}
		if !hasValue {
			i++ // the value is the next argument
		}
	}
	return out
}

// runWorkload sets a workload up, measures it and checks its outputs.
func runWorkload(cfg config, tr *tracer) (*result, error) {
	start := time.Now().UTC()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	d := time.Duration(cfg.seconds * float64(time.Second))

	res := &result{Workload: cfg.workload, Metrics: map[string]metric{}, Detail: map[string]metric{}}
	var ph *phase
	var problems []string
	if tr == nil {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			if err := w.setup(nil); err != nil {
				return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		ph = w.measure(d, nil)
		problems = append(ph.problems, w.check(nil)...)
		res.add(metric{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups), Median: median(setups)})
		for _, mt := range ph.e2e {
			res.add(mt)
		}
		res.add(m("peak_rss_mb", "MB", peakRSSMB()))
	} else {
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		// The first half runs untraced, so the traced half's primary metric
		// can be set against it: the difference is the tracing overhead.
		base := w.measure(d/2, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ph = w.measure(d/2, tr)
		runtime.ReadMemStats(&after)
		problems = append(append(base.problems, ph.problems...), w.check(tr)...)
		sum := tr.summary()
		for _, mt := range layerMetrics(sum, base, ph, before, after) {
			res.add(mt)
		}
		ph.detail = append(ph.detail, spanDetail(sum)...)
	}
	for _, mt := range ph.detail {
		res.Detail[mt.Name] = mt
		res.order = append(res.order, mt.Name)
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Problems = problems
	res.Correct = len(problems) == 0
	for _, name := range res.order {
		mt, ok := res.Metrics[name]
		if !ok {
			mt = res.Detail[name]
		}
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			res.Correct = false
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s is not finite", name))
		}
	}
	if !res.Correct {
		res.Metrics, res.Detail, res.order = map[string]metric{}, nil, nil
	}
	res.Provenance = provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit: gitCommit(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Params: w.params(), StartUTC: start.Format(time.RFC3339),
	}
	return res, nil
}

func (r *result) add(mt metric) {
	r.Metrics[mt.Name] = mt
	r.order = append(r.order, mt.Name)
}

// report prints the metric lines and the final JSON line, and returns the
// exit code: nonzero when a correctness check failed, in which case no
// metric is reported.
func report(res *result, stdout, stderr io.Writer) int {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", res.Workload, p)
	}
	for _, name := range res.order {
		mt, ok := res.Metrics[name]
		if !ok {
			mt = res.Detail[name]
		}
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", res.Workload, name, mt.Value, mt.Unit)
	}
	for name, mt := range res.Metrics {
		line.Metrics[name] = metric{Value: mt.Value, Unit: mt.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gitCommit is the checked-out commit when the working directory is a git
// checkout, and "unknown" otherwise (the benchmark also runs from exported
// source trees).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsKind reports whether dir sits on tmpfs or on a disk-backed filesystem.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](mp map[string]V) []string {
	keys := make([]string, 0, len(mp))
	for k := range mp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

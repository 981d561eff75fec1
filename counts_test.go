package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"specsyn/internal/builder"
	"specsyn/internal/estimate"
	"specsyn/internal/faultinject"
	"specsyn/internal/graphtest"
	"specsyn/internal/serve"
	"specsyn/internal/specsyn"
	"specsyn/internal/store"
	"specsyn/internal/syngen"
	"specsyn/internal/vhdl"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.json from this run")

const countsPath = "testdata/counts.json"

// counts is the form of testdata/counts.json. Mallocs are heap allocations
// per call, which depend on the Go release but not on the machine; Exact
// rows, journal bytes and fsyncs, depend on neither.
type counts struct {
	GoVersion string           `json:"go_version"`
	Mallocs   map[string]int64 `json:"mallocs"`
	Exact     map[string]int64 `json:"exact"`
}

// mallocTolerance is how far a malloc row may drift from the file, either
// way: a rise is a regression, a fall a stale file. The counts repeat
// exactly from run to run and at any GOMAXPROCS; one extra allocation per
// behavior in the builder moves every build row by 0.4% or more.
const mallocTolerance = 0.0025

// countSubjects are the paper examples, with their profiles, library and
// overrides as a session builds them, and the generated scaling subjects.
var countSubjects = []string{"ans", "ether", "fuzzy", "vol", "syn-p8", "syn-p32", "syn-p128"}

// mallocsPerCall returns the heap allocations of one call of f, the
// fewest over three calls after a warm-up call. Each call gets src with a
// trailing comment of its own. The collector is off while measuring, so no
// pool drain lands inside a call.
func mallocsPerCall(src string, f func(src string)) int64 {
	srcs := make([]string, 4)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("%s-- count %d\n", src, i)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f(srcs[0])
	var before, after runtime.MemStats
	fewest := int64(math.MaxInt64)
	for _, s := range srcs[1:] {
		runtime.ReadMemStats(&before)
		f(s)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, int64(after.Mallocs-before.Mallocs))
	}
	return fewest
}

// nullEdit prepends a null statement to the first process of src.
func nullEdit(t *testing.T, src string) string {
	df, err := vhdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ps := df.Architectures[0].Processes[0]
	ps.Body = append([]vhdl.Stmt{&vhdl.NullStmt{}}, ps.Body...)
	return vhdl.Format(df)
}

// measureSubject adds the build, rebuild and estimate rows of one subject
// to m.
func measureSubject(t *testing.T, name string, m map[string]int64) {
	var env *specsyn.Env
	var procs int
	if n, err := fmt.Sscanf(name, "syn-p%d", &procs); n == 1 && err == nil {
		env = specsyn.New()
		env.LoadVHDL(syngen.Generate(syngen.Config{Seed: 7, Processes: procs}))
		if err := env.Build(); err != nil {
			t.Fatal(err)
		}
	} else {
		env = loadEnv(t, name)
	}
	src, opts := env.Source, builder.Options{Profile: env.Prof, Techs: env.Lib.Techs, Overrides: env.Overrides}

	m["build/"+name] = mallocsPerCall(src, func(src string) {
		if _, err := builder.BuildVHDL(src, opts); err != nil {
			t.Fatal(err)
		}
	})

	// Only a real patch is counted: the edit must not fall back to a full
	// build, and its result must be byte-identical to a fresh build. The
	// front end of the previous source is made outside the measured calls,
	// as a session holds it.
	edited := nullEdit(t, src)
	prevFE, err := builder.NewFrontEnd(src)
	if err != nil {
		t.Fatal(err)
	}
	g, _, delta, err := builder.RebuildFrom(env.Graph, prevFE, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Full {
		t.Fatalf("%s: one-behavior edit fell back to a full build (%s)", name, delta.Reason)
	}
	fresh, err := builder.BuildVHDL(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(graphtest.Bytes(t, g), graphtest.Bytes(t, fresh)) {
		t.Fatalf("%s: incremental rebuild diverges from a full build", name)
	}
	m["rebuild/"+name] = mallocsPerCall(edited, func(next string) {
		if _, _, _, err := builder.RebuildFrom(env.Graph, prevFE, next, opts); err != nil {
			t.Fatal(err)
		}
	})

	pt, err := env.DefaultPartition()
	if err != nil {
		t.Fatal(err)
	}
	m["estimate/"+name] = mallocsPerCall("", func(string) {
		if _, _, err := env.Estimate(pt, estimate.Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// reloadMallocs returns the heap allocations of one Env.Reload of edited
// on a session built from src, the fewest over three calls after a warm-up
// call. Before each call the session is put back on src, and then every
// session of others reloads a source of its own, as sessions served side
// by side do; neither is measured. Each round tags its sources with a
// comment of its own, and the measured reload must be a patch.
func reloadMallocs(t *testing.T, env *specsyn.Env, src, edited string, others []*specsyn.Env) int64 {
	bases := make([]string, len(others))
	for i, o := range others {
		bases[i] = o.Source
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	fewest := int64(math.MaxInt64)
	for round := 0; round < 4; round++ {
		tag := fmt.Sprintf("-- count %d\n", round)
		if _, err := env.Reload(src + tag); err != nil {
			t.Fatal(err)
		}
		for i, o := range others {
			if _, err := o.Reload(bases[i] + tag); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&before)
		delta, err := env.Reload(edited + tag)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if delta.Full || delta.Empty() {
			t.Fatalf("one-behavior reload: delta %+v", delta)
		}
		if round > 0 {
			fewest = min(fewest, int64(after.Mallocs-before.Mallocs))
		}
	}
	return fewest
}

// measureReload adds to m the allocations of a one-behavior Env.Reload of
// syn-p32 on its own, and of the same reload made after four other
// sessions, the paper examples, reloaded: a session keeps the front end of
// its current source, so the other sessions' work must not change its
// reload.
func measureReload(t *testing.T, m map[string]int64) {
	session := func() *specsyn.Env {
		env := specsyn.New()
		env.LoadVHDL(syngen.Generate(syngen.Config{Seed: 7, Processes: 32}))
		if err := env.Build(); err != nil {
			t.Fatal(err)
		}
		return env
	}
	var others []*specsyn.Env
	for _, name := range examples {
		others = append(others, loadEnv(t, name))
	}
	env := session()
	src := env.Source
	edited := nullEdit(t, src)
	m["reload/syn-p32"] = reloadMallocs(t, env, src, edited, nil)
	m["reload-interleaved/syn-p32"] = reloadMallocs(t, session(), src, edited, others)
}

// measureServe adds to m the journal bytes and fsyncs of one served build
// of fuzzy, then of eight served reloads that toggle a null statement, on
// a durable store over a fault-free ChaosFS.
func measureServe(t *testing.T, m map[string]int64) {
	dir := t.TempDir()
	fsys := faultinject.NewChaosFS(nil, faultinject.FSPlan{})
	st, _, err := store.Open(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := serve.New(serve.Config{Store: st})
	post := func(path string, body any) {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/designs/fuzzy/"+path, bytes.NewReader(data)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	state := func() (journalBytes, fsyncs int64) {
		fi, err := os.Stat(filepath.Join(dir, "journal.slifj"))
		if err != nil {
			t.Fatal(err)
		}
		_, syncs, _ := fsys.Counts()
		return fi.Size(), int64(syncs)
	}

	src := readFile(t, "fuzzy.vhd")
	edited := nullEdit(t, src)
	bytes0, syncs0 := state()
	post("build", serve.BuildRequest{VHDL: src, Profile: readFile(t, "fuzzy.prob"), Overrides: readFile(t, "fuzzy.ov")})
	bytes1, syncs1 := state()
	for i := 1; i <= 8; i++ {
		next := src
		if i%2 == 1 {
			next = edited
		}
		post("reload", serve.ReloadRequest{VHDL: fmt.Sprintf("%s-- reload %d\n", next, i)})
	}
	bytes2, syncs2 := state()
	m["serve/fuzzy/build/journal_bytes"], m["serve/fuzzy/build/fsyncs"] = bytes1-bytes0, syncs1-syncs0
	m["serve/fuzzy/reload8/journal_bytes"], m["serve/fuzzy/reload8/fsyncs"] = bytes2-bytes1, syncs2-syncs1
}

// raceEnabled reports whether the test binary was built with -race, which
// changes what the program allocates as well as how fast it runs.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// compareRows reports every row of want that got lacks or holds more than
// tol (a fraction) away, and rows of got that want lacks.
func compareRows(t *testing.T, got, want map[string]int64, tol float64) {
	t.Helper()
	for key, w := range want {
		if g, ok := got[key]; !ok || math.Abs(float64(g-w)) > tol*float64(w) {
			t.Errorf("%s: measured %d, %s has %d", key, g, countsPath, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("measured %d rows, %s has %d", len(got), countsPath, len(want))
	}
}

// TestCounts is a ratchet on counts that do not depend on the machine:
// heap allocations per Build, Rebuild and Estimate on every subject and
// per Env.Reload of syn-p32, and the journal bytes and fsyncs of a served
// build and of served reloads.
// It compares them with testdata/counts.json, which
//
//	go test -run TestCounts -update .
//
// rewrites. Malloc rows must stay within ±0.25% of the file, so a stale
// file fails as surely as a regression; they are compared only under the
// Go release that wrote the file and without -race. The other rows must
// match exactly. Whatever the file says, a one-behavior Rebuild of
// syn-p128 must allocate at most half of what a full build does, and
// outside -race a syn-p32 reload must allocate the same, within
// mallocTolerance, whether or not other sessions reloaded before it.
func TestCounts(t *testing.T) {
	if *update && raceEnabled() {
		t.Fatal("-update writes the counts of a build without -race")
	}
	got := counts{GoVersion: runtime.Version(), Mallocs: map[string]int64{}, Exact: map[string]int64{}}
	for _, name := range countSubjects {
		measureSubject(t, name, got.Mallocs)
	}
	measureReload(t, got.Mallocs)
	measureServe(t, got.Exact)

	build, rebuild := got.Mallocs["build/syn-p128"], got.Mallocs["rebuild/syn-p128"]
	if float64(rebuild) > 0.5*float64(build) {
		t.Errorf("syn-p128: a one-behavior rebuild allocates %d times, %.3f of a full build's %d; want at most 0.5",
			rebuild, float64(rebuild)/float64(build), build)
	}
	warm, inter := got.Mallocs["reload/syn-p32"], got.Mallocs["reload-interleaved/syn-p32"]
	if !raceEnabled() && math.Abs(float64(inter-warm)) > mallocTolerance*float64(warm) {
		t.Errorf("syn-p32: a reload after four other sessions reloaded allocates %d times, one on its own %d; want them within %.2f%%",
			inter, warm, 100*mallocTolerance)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(countsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want counts
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	compareRows(t, got.Exact, want.Exact, 0)
	switch {
	case want.GoVersion != got.GoVersion:
		t.Logf("malloc rows skipped: %s was written by %s, this is %s", countsPath, want.GoVersion, got.GoVersion)
	case raceEnabled():
		t.Log("malloc rows skipped under -race")
	default:
		compareRows(t, got.Mallocs, want.Mallocs, mallocTolerance)
	}
	if t.Failed() {
		t.Log("if the change is intended, regenerate the file with go test -run TestCounts -update .")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsyn/internal/partition"
	"specsyn/internal/serve"
	"specsyn/internal/shell"
)

func TestDeadlineFlag(t *testing.T) {
	var d deadlineFlag
	if err := d.Set("Ctrl=3500000"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("volmain=50.5"); err != nil {
		t.Fatal(err)
	}
	if d.m["ctrl"] != 3.5e6 {
		t.Errorf("ctrl deadline = %v (names must lower-case)", d.m["ctrl"])
	}
	if d.m["volmain"] != 50.5 {
		t.Errorf("volmain deadline = %v", d.m["volmain"])
	}
	if err := d.Set("missing-equals"); err == nil {
		t.Error("malformed deadline accepted")
	}
	if err := d.Set("x=notanumber"); err == nil {
		t.Error("non-numeric deadline accepted")
	}
	if d.String() == "" {
		t.Error("String() empty")
	}
}

var testdata = filepath.Join("..", "..", "testdata")

// tinySrc is small enough for exhaustive enumeration: four objects.
const tinySrc = `
entity TinyE is
    port ( din : in integer range 0 to 255;
           dout : out integer range 0 to 255 );
end;
architecture behav of TinyE is
    signal acc : integer range 0 to 255;
begin
    Main: process
        variable tmp : integer range 0 to 255;
        procedure Step is
        begin
            tmp := din;
            acc <= tmp + acc;
        end;
    begin
        Step;
        dout <= acc;
        wait on din;
    end process;
end;
`

// frontEnds gives the three ways to ask for a search: the partition
// subcommand's flags, a shell line and a daemon explore body, all on one
// design.
type frontEnds struct {
	args []string // the input flags
	ts   *httptest.Server
	url  string
	sess *shell.Session
}

func newFrontEnds(t *testing.T, vhd, prob string) *frontEnds {
	t.Helper()
	f := &frontEnds{ts: httptest.NewServer(serve.New(serve.Config{}))}
	t.Cleanup(f.ts.Close)
	src, err := os.ReadFile(vhd)
	if err != nil {
		t.Fatal(err)
	}
	req := serve.BuildRequest{VHDL: string(src)}
	args := []string{"-vhd", vhd}
	if prob != "" {
		p, err := os.ReadFile(prob)
		if err != nil {
			t.Fatal(err)
		}
		req.Profile, args = string(p), append(args, "-prob", prob)
	}
	f.args, f.url = args[:len(args):len(args)], f.ts.URL+"/v1/designs/d"
	if code, msg := f.post(t, "/build", req, nil); code != http.StatusOK {
		t.Fatalf("build: status %d: %s", code, msg)
	}
	c, err := parsePartition(args)
	if err != nil {
		t.Fatal(err)
	}
	if f.sess, err = shell.New(c.load()); err != nil {
		t.Fatal(err)
	}
	return f
}

// post sends a JSON body to the design and decodes a 200 answer into out;
// it returns the status and, for any other status, the error message.
func (f *frontEnds) post(t *testing.T, path string, in, out any) (int, string) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.ts.Client().Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ""
}

// shell runs one line in the session and returns its output.
func (f *frontEnds) shell(t *testing.T, line string) string {
	t.Helper()
	var out strings.Builder
	if err := f.sess.Run(strings.NewReader(line+"\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// fingerprint is what one search returned: cost bits, evals and mapping.
func fingerprint(res partition.MultiResult) string {
	asg := map[string]string{}
	for _, n := range res.Best.Graph().Nodes {
		asg[n.Name] = res.Best.BvComp(n).CompName()
	}
	return fmt.Sprintf("cost=%#x evals=%d map=%v", math.Float64bits(res.Cost), res.Report.Evals, asg)
}

// TestPresetsAgree: every search preset, asked for with equal seeds
// through the partition subcommand's flags, a shell line and an explore
// body, runs one search with one cost, eval count and mapping.
func TestPresetsAgree(t *testing.T) {
	tiny := filepath.Join(t.TempDir(), "tiny.vhd")
	if err := os.WriteFile(tiny, []byte(tinySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	fuzzy := newFrontEnds(t, filepath.Join(testdata, "fuzzy.vhd"), filepath.Join(testdata, "fuzzy.prob"))
	for _, tc := range []struct {
		f    *frontEnds
		algo string
	}{
		{fuzzy, "random"}, {fuzzy, "greedy"}, {fuzzy, "cluster"}, {fuzzy, "gm"}, {fuzzy, "anneal"},
		{fuzzy, "multi"}, {fuzzy, "portfolio"}, {newFrontEnds(t, tiny, ""), "exhaustive"},
	} {
		c, err := parsePartition(append(tc.f.args, "-algo", tc.algo, "-seed", "1"))
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		res, err := c.load().Search(context.Background(), c.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		cli := fingerprint(res)

		if out := tc.f.shell(t, "search "+tc.algo); strings.Contains(out, "error:") {
			t.Fatalf("%s: shell: %s", tc.algo, out)
		}
		sh := fingerprint(tc.f.sess.LastSearch)

		var exp serve.ExploreResponse
		if code, msg := tc.f.post(t, "/explore", serve.ExploreRequest{Algo: tc.algo, Seed: 1}, &exp); code != http.StatusOK {
			t.Fatalf("%s: explore: status %d: %s", tc.algo, code, msg)
		}
		served := fmt.Sprintf("cost=%#x evals=%d map=%v", math.Float64bits(exp.Cost), exp.Evals, exp.Assignment)

		if sh != cli || served != cli {
			t.Errorf("%s:\n cli   %s\n shell %s\n serve %s", tc.algo, cli, sh, served)
		}
	}
}

// TestSearchRefusals: the three front ends refuse the same out-of-bound
// requests, each with the spec's own message naming the limit.
func TestSearchRefusals(t *testing.T) {
	f := newFrontEnds(t, filepath.Join(testdata, "fuzzy.vhd"), "")
	for _, tc := range []struct {
		flags, line, body, want string
	}{
		{"-algo multi -legs 257", "search multi 257", `{"algo":"multi","legs":257}`, "at most 256 legs"},
		{"-algo portfolio -max-rounds 1025", "search portfolio -max-rounds 1025", `{"algo":"portfolio","max_rounds":1025}`, "1024 rounds"},
		{"-algo multi -round-evals 1048577", "search multi -round-evals 1048577", `{"round_evals":1048577}`, "1048576 round_evals"},
		{"-algo multi -legs -1", "search multi -legs -1", `{"legs":-1}`, "legs must not be negative"},
		{"-algo gm -iters -1", "search gm -iters -1", `{"algo":"gm","iters":-1}`, "iters must not be negative"},
		{"-algo nonsense", "search nonsense", `{"algo":"nonsense"}`, `unknown algorithm "nonsense"`},
	} {
		if _, err := parsePartition(append(f.args, strings.Fields(tc.flags)...)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("partition %s: error %v, want one naming %q", tc.flags, err, tc.want)
		}
		if out := f.shell(t, tc.line); !strings.Contains(out, "error: usage: search") || !strings.Contains(out, tc.want) {
			t.Errorf("shell %q: output %q, want a usage error naming %q", tc.line, out, tc.want)
		}
		if code, msg := f.post(t, "/explore", json.RawMessage(tc.body), nil); code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("explore %s: status %d %q, want 400 naming %q", tc.body, code, msg, tc.want)
		}
	}
}

// TestBuildReadsSlif: build writes fuzzy's .slif and DOT with -o and
// -dot; build -slif reads the file back and writes both again, byte for
// byte. A file that carries a partition draws the clustered DOT.
func TestBuildReadsSlif(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	runBuild([]string{"-vhd", filepath.Join(testdata, "fuzzy.vhd"), "-prob", filepath.Join(testdata, "fuzzy.prob"),
		"-ov", filepath.Join(testdata, "fuzzy.ov"), "-lib", filepath.Join(testdata, "std.lib"),
		"-o", path("a.slif"), "-dot", path("a.dot")})
	runBuild([]string{"-slif", path("a.slif"), "-o", path("b.slif"), "-dot", path("b.dot")})
	if read("a.slif") != read("b.slif") {
		t.Error("build -slif -o does not reproduce the file it read")
	}
	if read("a.dot") != read("b.dot") {
		t.Error("build -slif -dot differs from build -vhd -dot")
	}

	f := newFrontEnds(t, filepath.Join(testdata, "fuzzy.vhd"), "")
	if out := f.shell(t, "map convolve asic\nsave "+path("p.slif")); strings.Contains(out, "error:") {
		t.Fatal(out)
	}
	runBuild([]string{"-slif", path("p.slif"), "-o", path("q.slif"), "-dot", path("q.dot")})
	if read("p.slif") != read("q.slif") {
		t.Error("build -slif -o drops the partition it read")
	}
	if !strings.Contains(read("q.dot"), "subgraph cluster_") {
		t.Error("DOT of a partitioned file is not clustered")
	}
}

package specsyn

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"specsyn/internal/core"
)

// TestGoldenSlif protects the .slif serialization format and the full
// build pipeline's determinism: building the fuzzy example must reproduce
// testdata/golden/fuzzy.slif byte for byte. Regenerate the golden file
// after an intentional format change with:
//
//	go run ./cmd/specsyn build -vhd testdata/fuzzy.vhd -prob testdata/fuzzy.prob \
//	    -ov testdata/fuzzy.ov -lib testdata/std.lib -o testdata/golden/fuzzy.slif
func TestGoldenSlif(t *testing.T) {
	env := load(t, "fuzzy")
	var buf bytes.Buffer
	if err := core.Write(&buf, env.Graph, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(testdata, "golden", "fuzzy.slif"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wantS := buf.String(), string(want)
		// Report the first differing line for a usable failure message.
		gl, wl := splitLines(got), splitLines(wantS)
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("golden mismatch at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Fatal("golden mismatch (length only)")
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

package serve

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"specsyn/internal/specsyn"
)

// FuzzSearchSpec decodes fuzzed bytes as an explore body, through the
// daemon's own decoder, into a search spec and normalizes it. Either the
// spec is refused, or every count lies within its bound and normalizing
// again changes nothing. No search runs, so no goroutine starts.
func FuzzSearchSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"algo":"portfolio","legs":5,"seed":7}`,
		`{"workers":1073741824,"max_evals":100}`,
		`{"legs":256,"max_rounds":1024,"round_evals":1048576,"kill_margin":-1}`,
		`{"legs":-1}`,
		`{"algo":"random","workers":3,"iters":100}`,
		`{"algo":"nonsense"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ExploreRequest
		if readJSON(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &req) != nil {
			return
		}
		spec, _ := req.spec()
		if spec.Normalize() != nil {
			return
		}
		if spec.Legs < 0 || spec.Legs > specsyn.LegLimit ||
			spec.Workers < 0 || spec.Workers > runtime.GOMAXPROCS(0) ||
			spec.MaxRounds < 0 || spec.MaxRounds > specsyn.RoundLimit ||
			spec.RoundEvals < 0 || spec.RoundEvals > specsyn.RoundEvalsLimit {
			t.Fatalf("%s normalized out of bounds: %+v", body, spec)
		}
		again := spec
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("%s: Normalize is not idempotent: %+v then %+v (%v)", body, spec, again, err)
		}
	})
}

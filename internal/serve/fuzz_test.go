package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/telemetry"
)

// fuzzSolveBound caps one request's wall time: every graph the fuzzer can
// reach is a 16-vertex corpus ring or at most 256 inline edges.
const fuzzSolveBound = 5 * time.Second

// FuzzSolveRequest drives POST /solve bodies through an in-process
// Service. No body may panic the handler or draw a 5xx, each returns
// within fuzzSolveBound, every 200 with include_solution carries an
// assignment that verifies against its graph, and every 200's digest
// equals that of a direct core.SolveVerified of the parsed request.
func FuzzSolveRequest(f *testing.F) {
	for _, body := range []string{
		`{"graph":"ring","problem":"mm","algo":"rand","seed":7,"include_solution":true}`,
		`{"edges":[[0,1],[1,2],[2,0],[2,3]],"problem":"color","algo":"degk","include_solution":true}`,
		`{"edges":[[0,0],[0,1],[1,2]],"problem":"mis","include_solution":true}`,
		`{"edges":[[0,1],[1,0],[0,1],[1,2]],"problem":"mm","algo":"bridge","include_solution":true}`,
		`{"edges":[[0,5]],"vertices":3,"problem":"mm"}`,
		`{"edges":[[-1,2]],"problem":"mis"}`,
		`{"edges":[[0,1]],"vertices":100000,"problem":"color"}`,
		`{"graph":"ring","problem":"tsp"}`,
		`{"graph":"ring","problem":"mm","algo":"magic"}`,
		`{"graph":"ring","problem":"mm","arch":"tpu"}`,
		`{"graph":"ring","problem":"mm","algo":"rand","params":{"parts":17}}`,
		`{"graph":"ring","problem":"mis","algo":"degk","params":{"k":3}}`,
		`{"graph":"ring","problem":"color","algo":"mpx","params":{"beta":-0.5}}`,
		`{"graph":"ring","problem":"mis","algo":"mpx","params":{"beta":1e-9}}`,
		`{"graph":"ring","problem":"mm","algo":"mpx","params":{"beta":3.5e-8},"include_solution":true}`,
		`{"graph":"ring","problem":"mm","colour":1}`,
	} {
		f.Add(body)
	}
	corpus := NewCorpus()
	if err := corpus.Add("ring", "test", ringGraph(16)); err != nil {
		f.Fatal(err)
	}
	svc := New(Config{Corpus: corpus, Registry: telemetry.NewRegistry(), MaxInlineEdges: 256})
	mux := http.NewServeMux()
	svc.Mount(mux)

	f.Fuzz(func(t *testing.T, body string) {
		start := time.Now()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(body)))
		if el := time.Since(start); el > fuzzSolveBound {
			t.Fatalf("request took %v (bound %v): %s", el, fuzzSolveBound, body)
		}
		if rec.Code >= 500 {
			t.Fatalf("status %d for %s: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp solveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		// The handler accepted the body, so the same strict decode and
		// validation succeed here and yield its graph and options.
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req solveRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		ps, herr := svc.parseSolve(&req)
		if herr != nil {
			t.Fatalf("200 for a request that does not validate: %v", herr)
		}
		res, err := core.SolveVerified(ps.g, ps.problem, ps.opt)
		if err != nil {
			t.Fatalf("direct solve of an accepted request: %v", err)
		}
		if want := fmt.Sprintf("%016x", res.SolutionDigest()); resp.Solution.Digest != want {
			t.Fatalf("digest %s, direct solve %s: %s", resp.Solution.Digest, want, body)
		}
		if req.IncludeSolution {
			if err := core.Verify(ps.g, resultFor(resp.Solution)); err != nil {
				t.Fatalf("returned assignment does not verify: %v: %s", err, body)
			}
		}
	})
}

// resultFor rebuilds a core.Result from a response's solution payload.
func resultFor(s solutionInfo) *core.Result {
	switch s.Kind {
	case "matching":
		return &core.Result{Matching: &matching.Matching{Mate: s.Assignment}}
	case "coloring":
		return &core.Result{Coloring: &coloring.Coloring{Color: s.Assignment}}
	case "mis":
		in := make([]bool, len(s.Assignment))
		for i, a := range s.Assignment {
			in[i] = a == 1
		}
		return &core.Result{IndepSet: &mis.IndepSet{In: in}}
	}
	return &core.Result{}
}

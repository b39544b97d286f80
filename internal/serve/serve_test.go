package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// ringGraph builds a cycle on n vertices — small enough to solve
// instantly, structured enough that every problem has a non-trivial
// answer.
func ringGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32((i + 1) % n)}
	}
	return graph.FromEdges(n, edges)
}

// newTestServer boots a Service on a random localhost port with a
// one-graph corpus and its own recording registry, returning the service,
// its base URL, and the registry behind /metrics.
func newTestServer(t *testing.T, cfg Config) (*Service, string, *telemetry.Registry) {
	t.Helper()
	corpus := NewCorpus()
	if err := corpus.Add("ring", "test", ringGraph(64)); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg.Corpus = corpus
	cfg.Registry = reg
	svc := New(cfg)
	mux := telemetry.NewMux(reg)
	svc.Mount(mux)
	srv, err := telemetry.ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, srv.URL(), reg
}

func postSolve(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(b)
}

// TestSolveCoalescingAndCache is the end-to-end acceptance test: N
// concurrent identical requests run the solver exactly once, the repeat
// request hits the cache, and every answer is bit-identical.
func TestSolveCoalescingAndCache(t *testing.T) {
	const n = 8
	entered := make(chan struct{}, n)
	proceed := make(chan struct{})
	var cfg Config
	svc, url, _ := newTestServer(t, cfg)
	svc.testHookBeforeRun = func() {
		entered <- struct{}{}
		<-proceed
	}

	req := `{"graph":"ring","problem":"mm","algo":"rand","seed":7}`
	type result struct {
		code  int
		disp  string
		body  []byte
		order int
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, body := postSolve(t, url, req)
			results <- result{resp.StatusCode, resp.Header.Get("X-Symbreak-Cache"), body, i}
		}(i)
	}

	// The leader is now parked in the hook; wait until every other request
	// has joined it as a coalesced follower, then let the solve run.
	<-entered
	deadline := time.Now().Add(10 * time.Second)
	for svc.flight.dups.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", svc.flight.dups.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(proceed)

	var miss, coalesced int
	var first []byte
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", r.order, r.code, r.body)
		}
		switch r.disp {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d: X-Symbreak-Cache = %q", r.order, r.disp)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("request %d body differs from the first:\n%s\nvs\n%s", r.order, r.body, first)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("dispositions: %d miss, %d coalesced; want 1 and %d", miss, coalesced, n-1)
	}
	if got := svc.Snapshot().Runs; got != 1 {
		t.Fatalf("runs = %d for %d concurrent identical requests; want exactly 1", got, n)
	}
	if m := scrapeMetrics(t, url); !strings.Contains(m, "symbreak_serve_runs_total 1") {
		t.Fatalf("/metrics missing symbreak_serve_runs_total 1:\n%s", m)
	}

	// Repeat after completion: served from cache, byte-identical.
	resp, body := postSolve(t, url, req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Symbreak-Cache") != "hit" {
		t.Fatalf("repeat request: status %d, disposition %q; want 200 hit", resp.StatusCode, resp.Header.Get("X-Symbreak-Cache"))
	}
	if !bytes.Equal(body, first) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", body, first)
	}
	if s := svc.Snapshot(); s.Runs != 1 || s.CacheHits != 1 {
		t.Fatalf("after repeat: runs=%d hits=%d; want 1 and 1", s.Runs, s.CacheHits)
	}
}

// TestSolveDeterministicAcrossServers checks the documented guarantee:
// the same request on two fresh servers yields the same solution (digest,
// count, assignment) — only the wall-clock report may differ.
func TestSolveDeterministicAcrossServers(t *testing.T) {
	req := `{"graph":"ring","problem":"color","seed":42,"include_solution":true}`
	var bodies [2]solveResponse
	for i := range bodies {
		_, url, _ := newTestServer(t, Config{})
		resp, body := postSolve(t, url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &bodies[i]); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
	a, b := bodies[0], bodies[1]
	a.Report, b.Report = reportInfo{}, reportInfo{}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("responses differ beyond timings:\n%s\nvs\n%s", aj, bj)
	}
	if a.Solution.Digest == "" || a.Solution.Digest == fmt.Sprintf("%016x", uint64(0)) {
		t.Fatalf("empty solution digest %q", a.Solution.Digest)
	}
	if len(a.Solution.Assignment) != 64 {
		t.Fatalf("assignment has %d entries; want 64", len(a.Solution.Assignment))
	}
}

// TestSolveQueueFull429 pins admission overload: with a budget of one
// unit, a zero-length queue, and a solve held open, a second distinct
// request is turned away immediately with 429 and Retry-After.
func TestSolveQueueFull429(t *testing.T) {
	entered := make(chan struct{}, 4)
	proceed := make(chan struct{})
	svc, url, _ := newTestServer(t, Config{WorkerBudget: 1, QueueDepth: -1})
	svc.testHookBeforeRun = func() {
		entered <- struct{}{}
		<-proceed
	}

	type result struct {
		resp *http.Response
		body []byte
	}
	held := make(chan result, 1)
	go func() {
		resp, body := postSolve(t, url, `{"graph":"ring","problem":"mm","seed":1}`)
		held <- result{resp, body}
	}()
	<-entered // budget is now fully held

	resp, body := postSolve(t, url, `{"graph":"ring","problem":"mm","seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: status %d, body %s; want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(proceed)
	r := <-held
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("held request: status %d, body %s", r.resp.StatusCode, r.body)
	}
	if m := scrapeMetrics(t, url); !strings.Contains(m, `symbreak_serve_rejected_total{reason="queue_full"} 1`) {
		t.Fatalf("/metrics missing queue_full rejection:\n%s", m)
	}
}

// TestSolveQueueTimeout503 pins the other admission outcome: a request
// that queues but never gets budget within QueueTimeout gets 503.
func TestSolveQueueTimeout503(t *testing.T) {
	entered := make(chan struct{}, 4)
	proceed := make(chan struct{})
	svc, url, _ := newTestServer(t, Config{
		WorkerBudget: 1, QueueDepth: 1, QueueTimeout: 50 * time.Millisecond,
	})
	svc.testHookBeforeRun = func() {
		entered <- struct{}{}
		<-proceed
	}

	done := make(chan struct{})
	go func() {
		postSolve(t, url, `{"graph":"ring","problem":"mm","seed":1}`)
		close(done)
	}()
	<-entered

	resp, body := postSolve(t, url, `{"graph":"ring","problem":"mm","seed":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, body %s; want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}
	close(proceed)
	<-done
}

// TestAdmissionGaugesLive: the admission gauges are read at scrape time,
// so a scrape taken while one solve runs and a second waits for budget
// shows both, not the state at the last completed request.
func TestAdmissionGaugesLive(t *testing.T) {
	entered := make(chan struct{}, 4)
	proceed := make(chan struct{})
	svc, url, _ := newTestServer(t, Config{WorkerBudget: 1, QueueDepth: 4})
	svc.testHookBeforeRun = func() {
		entered <- struct{}{}
		<-proceed
	}

	done := make(chan int, 2)
	post := func(seed int) {
		resp, err := http.Post(url+"/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"graph":"ring","problem":"mm","seed":%d}`, seed)))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}
	go post(1)
	<-entered // the first solve holds the whole budget
	go post(2)
	deadline := time.Now().Add(10 * time.Second)
	for svc.Snapshot().AdmissionQueued != 1 {
		if time.Now().After(deadline) {
			close(proceed)
			t.Fatalf("second request never queued: %+v", svc.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}

	m := scrapeMetrics(t, url)
	close(proceed)
	for _, want := range []string{
		"symbreak_serve_admission_in_use 1\n",
		"symbreak_serve_admission_queued 1\n",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q while one solve runs and one waits:\n%s", want, m)
		}
	}
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("request status %d; want 200", code)
		}
	}
}

// TestSolvePanicReleasesKey pins the singleflight's panic path: when the
// leader's run panics, the leader and the follower that joined it both
// get a recorded 500, and a later identical request runs afresh instead
// of waiting forever on the abandoned key.
func TestSolvePanicReleasesKey(t *testing.T) {
	entered := make(chan struct{}, 1)
	proceed := make(chan struct{})
	svc, url, _ := newTestServer(t, Config{})
	var fired atomic.Bool
	svc.testHookBeforeRun = func() {
		if fired.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-proceed
			panic("injected solver fault")
		}
	}

	req := `{"graph":"ring","problem":"mis","seed":5}`
	codes := make(chan int, 2)
	post := func() {
		resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(req))
		if err != nil {
			codes <- -1
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post() // the leader, parked in the hook
	<-entered
	go post() // a follower coalescing onto it
	deadline := time.Now().Add(10 * time.Second)
	for svc.flight.dups.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusInternalServerError {
			t.Fatalf("request during the panicking run: status %d; want 500", code)
		}
	}

	resp, body := postSolve(t, url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d, body %s; want 200", resp.StatusCode, body)
	}
	recent, _ := svc.rec.list()
	var failed int
	for _, rec := range recent {
		if rec.Status == http.StatusInternalServerError && strings.Contains(rec.Error, "injected solver fault") {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("flight recorder holds %d records of the panic; want 2", failed)
	}
}

func TestGraphsEndpoint(t *testing.T) {
	_, url, _ := newTestServer(t, Config{})
	resp, err := http.Get(url + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /graphs: status %d", resp.StatusCode)
	}
	var gr graphsResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.Graphs) != 1 {
		t.Fatalf("corpus lists %d graphs; want 1", len(gr.Graphs))
	}
	g := gr.Graphs[0]
	if g.Name != "ring" || g.Vertices != 64 || g.Edges != 64 || len(g.Fingerprint) != 16 {
		t.Fatalf("unexpected listing: %+v", g)
	}

	post, err := http.Post(url+"/graphs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /graphs: status %d; want 405", post.StatusCode)
	}
}

func TestSolveInlineEdges(t *testing.T) {
	_, url, _ := newTestServer(t, Config{})
	// A 4-path with vertex count inferred from the edge list.
	resp, body := postSolve(t, url, `{"edges":[[0,1],[1,2],[2,3]],"problem":"mis","include_solution":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline solve: status %d, body %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Graph.Vertices != 4 || sr.Graph.Class != "inline" {
		t.Fatalf("inline graph info = %+v; want 4 inferred vertices", sr.Graph)
	}
	if sr.Solution.Kind != "mis" || len(sr.Solution.Assignment) != 4 {
		t.Fatalf("solution = %+v; want a 4-entry mis assignment", sr.Solution)
	}
}

func TestSolveErrorCodes(t *testing.T) {
	_, url, _ := newTestServer(t, Config{MaxInlineEdges: 2})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"graph":"ring","problem":"mm","bogus":1}`, http.StatusBadRequest},
		{"unknown problem", `{"graph":"ring","problem":"tsp"}`, http.StatusBadRequest},
		{"unknown algo", `{"graph":"ring","problem":"mm","algo":"magic"}`, http.StatusBadRequest},
		{"unknown arch", `{"graph":"ring","problem":"mm","arch":"tpu"}`, http.StatusBadRequest},
		{"negative params", `{"graph":"ring","problem":"mm","params":{"parts":-1}}`, http.StatusBadRequest},
		{"parts above vertices", `{"graph":"ring","problem":"color","algo":"rand","params":{"parts":65}}`, http.StatusBadRequest},
		{"no graph", `{"problem":"mm"}`, http.StatusBadRequest},
		{"unknown graph", `{"graph":"nope","problem":"mm"}`, http.StatusNotFound},
		{"both sources", `{"graph":"ring","edges":[[0,1]],"problem":"mm"}`, http.StatusConflict},
		{"too many edges", `{"edges":[[0,1],[1,2],[2,3]],"problem":"mm"}`, http.StatusRequestEntityTooLarge},
		{"too many explicit vertices", `{"edges":[[0,1]],"vertices":3,"problem":"mis"}`, http.StatusRequestEntityTooLarge},
		{"too many inferred vertices", `{"edges":[[0,2]],"problem":"mis"}`, http.StatusRequestEntityTooLarge},
		{"negative vertex", `{"edges":[[-1,1]],"problem":"mm"}`, http.StatusBadRequest},
		{"endpoint out of range", `{"edges":[[0,5]],"vertices":2,"problem":"mm"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSolve(t, url, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, body %s; want %d", resp.StatusCode, body, tc.want)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q is not an {error} object (%v)", body, err)
			}
		})
	}

	resp, err := http.Get(url + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d; want 405", resp.StatusCode)
	}
}

// TestSolveAllProblems smoke-runs every problem and checks the request
// counter landed on /metrics.
func TestSolveAllProblems(t *testing.T) {
	_, url, _ := newTestServer(t, Config{})
	for _, problem := range []string{"mm", "color", "mis"} {
		resp, body := postSolve(t, url, fmt.Sprintf(`{"graph":"ring","problem":%q,"seed":3}`, problem))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", problem, resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("%s: %v", problem, err)
		}
		if !strings.EqualFold(sr.Problem, problem) || sr.Algo == "" || sr.Solution.Count <= 0 {
			t.Fatalf("%s: response %+v", problem, sr)
		}
	}
	m := scrapeMetrics(t, url)
	if !strings.Contains(m, `symbreak_serve_requests_total{endpoint="solve",code="200"} 3`) {
		t.Fatalf("/metrics missing the solve request counter:\n%s", m)
	}
}

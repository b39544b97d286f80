package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the request log writes
// from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// getRecord fetches one flight-recorder entry by id.
func getRecord(t *testing.T, url, id string) (*http.Response, RequestRecord) {
	t.Helper()
	resp, err := http.Get(url + "/debug/requests/" + id)
	if err != nil {
		t.Fatalf("GET /debug/requests/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var rec RequestRecord
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatalf("decode record %s: %v", id, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp, rec
}

// spanNames flattens a span tree into its set of names.
func spanNames(e *trace.Export, out map[string]int) {
	out[e.Name]++
	for i := range e.Children {
		spanNames(&e.Children[i], out)
	}
}

// TestRequestObservabilityE2E is the acceptance test for request-scoped
// observability: under concurrent distinct solves, every response
// carries a unique request id; the flight recorder serves each request's
// record with phases that sum to its wall time; and each record's span
// tree holds only that request's spans.
func TestRequestObservabilityE2E(t *testing.T) {
	var logBuf syncBuffer
	log, err := telemetry.NewRequestLog(&logBuf, "json")
	if err != nil {
		t.Fatal(err)
	}
	svc, url, _ := newTestServer(t, Config{Log: log})

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds → distinct cache keys → every request is a
			// singleflight leader running its own solve.
			body := fmt.Sprintf(`{"graph":"ring","problem":"mm","seed":%d}`, i)
			resp, _ := postSolve(t, url, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
			ids[i] = resp.Header.Get("X-Symbreak-Request-Id")
		}(i)
	}
	wg.Wait()

	seen := map[string]bool{}
	for i, id := range ids {
		if id == "" {
			t.Fatalf("request %d: no X-Symbreak-Request-Id header", i)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}

	// Records land in the recorder just after the response body; wait for
	// the last ones.
	recDeadline := time.Now().Add(5 * time.Second)
	for svc.rec.len() < n && time.Now().Before(recDeadline) {
		time.Sleep(time.Millisecond)
	}

	for i, id := range ids {
		resp, rec := getRecord(t, url, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/requests/%s: status %d", id, resp.StatusCode)
		}
		if rec.ID != id {
			t.Fatalf("record for %s has id %s", id, rec.ID)
		}
		if rec.Status != http.StatusOK || rec.Cache != "miss" {
			t.Errorf("record %s: status=%d cache=%q, want 200/miss", id, rec.Status, rec.Cache)
		}
		if rec.Seed != uint64(i) {
			t.Errorf("record %s: seed %d, want %d", id, rec.Seed, i)
		}

		// Per-phase durations must sum to the logged wall time (±5%).
		var sum int64
		for _, ph := range rec.Phases {
			sum += ph.DurNs
		}
		if rec.WallNs <= 0 {
			t.Fatalf("record %s: wall_ns %d", id, rec.WallNs)
		}
		if diff := sum - rec.WallNs; diff < -rec.WallNs/20 || diff > rec.WallNs/20 {
			t.Errorf("record %s: phases sum %d vs wall %d (off by %d, >5%%)",
				id, sum, rec.WallNs, diff)
		}

		// The span tree holds only this request's spans: its root names
		// this id, exactly one solve ran under it, and no other request's
		// id appears anywhere in the tree.
		if rec.Trace == nil {
			t.Fatalf("record %s: no span tree", id)
		}
		if want := "request " + id; rec.Trace.Name != want {
			t.Fatalf("record %s: span root %q, want %q", id, rec.Trace.Name, want)
		}
		names := map[string]int{}
		spanNames(rec.Trace, names)
		for name := range names {
			if strings.HasPrefix(name, "request ") && name != "request "+id {
				t.Errorf("record %s: foreign span %q in tree", id, name)
			}
		}
		solves := 0
		for name, cnt := range names {
			if strings.HasPrefix(name, "core ") {
				solves += cnt
			}
		}
		if solves != 1 {
			t.Errorf("record %s: %d core solve spans, want exactly 1", id, solves)
		}
		if got := names["queue"]; got != 1 {
			t.Errorf("record %s: %d queue spans, want 1", id, got)
		}
		if got := names["finalize"]; got != 1 {
			t.Errorf("record %s: %d finalize spans, want 1", id, got)
		}
	}

	// The list view knows all of them, without span trees.
	resp, err := http.Get(url + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list requestsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, r := range list.Requests {
		listed[r.ID] = true
		if r.Trace != nil {
			t.Errorf("list view for %s includes a span tree", r.ID)
		}
	}
	for _, id := range ids {
		if !listed[id] {
			t.Errorf("request %s missing from /debug/requests", id)
		}
	}

	// The Chrome export renders the same tree for Perfetto.
	cresp, err := http.Get(url + "/debug/requests/" + ids[0] + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	cbody, _ := io.ReadAll(cresp.Body)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export: status %d: %s", cresp.StatusCode, cbody)
	}
	var cf struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(cbody, &cf); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if len(cf.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	// One structured log line per request, carrying the id and the miss
	// disposition. The line is emitted just after the response body, so
	// poll briefly for the last stragglers.
	var lines []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines = strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
		if len(lines) >= n || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(lines) != n {
		t.Fatalf("%d log lines, want %d:\n%s", len(lines), n, logBuf.String())
	}
	for _, id := range ids {
		found := false
		for _, line := range lines {
			if strings.Contains(line, `"id":"`+id+`"`) {
				found = true
				if !strings.Contains(line, `"cache":"miss"`) {
					t.Errorf("log line for %s lacks cache=miss: %s", id, line)
				}
			}
		}
		if !found {
			t.Errorf("no log line for request %s", id)
		}
	}
}

// TestRequestDispositionsRecorded pins the cache satellite: hit and
// coalesced requests get flight-recorder entries naming their
// disposition, matching the X-Symbreak-Cache header.
func TestRequestDispositionsRecorded(t *testing.T) {
	entered := make(chan struct{}, 1)
	proceed := make(chan struct{})
	var cfg Config
	cfg.FlightRecorder = 16
	svc, url, _ := newTestServer(t, cfg)
	svc.testHookBeforeRun = func() {
		entered <- struct{}{}
		<-proceed
	}

	const body = `{"graph":"ring","problem":"mis","seed":42}`
	type res struct {
		id   string
		disp string
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postSolve(t, url, body)
			results <- res{
				id:   resp.Header.Get("X-Symbreak-Request-Id"),
				disp: resp.Header.Get("X-Symbreak-Cache"),
			}
		}()
	}
	<-entered // the leader is inside the run
	// Wait until the second request has joined the in-flight solve.
	deadline := time.After(5 * time.Second)
	for svc.flight.dups.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("second request never coalesced")
		case <-time.After(time.Millisecond):
		}
	}
	close(proceed)

	got := map[string]string{}
	for i := 0; i < 2; i++ {
		r := <-results
		got[r.disp] = r.id
	}
	if got["miss"] == "" || got["coalesced"] == "" {
		t.Fatalf("dispositions %v, want one miss and one coalesced", got)
	}

	// A repeat is a cache hit.
	resp, _ := postSolve(t, url, body)
	hitID := resp.Header.Get("X-Symbreak-Request-Id")
	if d := resp.Header.Get("X-Symbreak-Cache"); d != "hit" {
		t.Fatalf("repeat disposition %q, want hit", d)
	}

	recDeadline := time.Now().Add(5 * time.Second)
	for svc.rec.len() < 3 && time.Now().Before(recDeadline) {
		time.Sleep(time.Millisecond)
	}
	for disp, id := range map[string]string{
		"miss": got["miss"], "coalesced": got["coalesced"], "hit": hitID,
	} {
		gresp, rec := getRecord(t, url, id)
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("GET record %s: status %d", id, gresp.StatusCode)
		}
		if rec.Cache != disp {
			t.Errorf("record %s: cache %q, want %q", id, rec.Cache, disp)
		}
		if disp != "hit" && rec.Report == nil {
			t.Errorf("record %s (%s): no solver report", id, disp)
		}
	}
}

// TestFlightRecorderDisabled checks that a negative config turns the
// recorder off without breaking the endpoints.
func TestFlightRecorderDisabled(t *testing.T) {
	var cfg Config
	cfg.FlightRecorder = -1
	_, url, _ := newTestServer(t, cfg)

	resp, _ := postSolve(t, url, `{"graph":"ring","problem":"mm"}`)
	id := resp.Header.Get("X-Symbreak-Request-Id")
	if id == "" {
		t.Fatal("no request id with recorder disabled")
	}
	gresp, _ := getRecord(t, url, id)
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET record with recorder disabled: status %d, want 404", gresp.StatusCode)
	}
}

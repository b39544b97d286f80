package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// startTestServer binds a throwaway port and tears the server down with
// the test.
func startTestServer(t *testing.T, r *Registry) *Server {
	t.Helper()
	srv, err := ServeHandler("127.0.0.1:0", NewMux(r))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerHealthz(t *testing.T) {
	srv := startTestServer(t, NewRegistry())
	code, body := get(t, srv.URL()+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
}

func TestServerMetrics(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("symbreak_cell_seconds", "Cell time.", nil,
		"problem", "algo", "arch", "graph")
	h.With("MM", "MM-Rand", "CPU", "lp1").Observe(0.002)
	r.GaugeFunc("go_goroutines", "Goroutines.", func() float64 { return 12 })

	srv := startTestServer(t, r)
	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE symbreak_cell_seconds histogram",
		`symbreak_cell_seconds_bucket{problem="MM",algo="MM-Rand",arch="CPU",graph="lp1",le="+Inf"} 1`,
		`symbreak_cell_seconds_sum{problem="MM",algo="MM-Rand",arch="CPU",graph="lp1"} 0.002`,
		`symbreak_cell_seconds_count{problem="MM",algo="MM-Rand",arch="CPU",graph="lp1"} 1`,
		"go_goroutines 12",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServerTraceSnapshot(t *testing.T) {
	trace.Default.Reset()
	defer trace.Default.Reset()
	sp := trace.Default.Root().Begin("live-phase")
	sp.Add("rounds", 4)

	srv := startTestServer(t, NewRegistry())
	code, body := get(t, srv.URL()+"/trace")
	sp.End()
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var e trace.Export
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("/trace is not valid Export JSON: %v\n%s", err, body)
	}
	live := e.Find("live-phase")
	if live == nil {
		t.Fatalf("/trace missing the open span:\n%s", body)
	}
	if live.Counter("rounds") != 4 {
		t.Fatalf("open span counters not live: %+v", live)
	}
	if live.DurNs <= 0 {
		t.Fatalf("open span must export elapsed-so-far time, got %d", live.DurNs)
	}
}

func TestServeHandlerMountsExtraRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total", "Demo.").Inc()
	mux := NewMux(r)
	mux.HandleFunc("/extra", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "mounted")
	})
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if code, body := get(t, srv.URL()+"/extra"); code != http.StatusOK || body != "mounted" {
		t.Fatalf("/extra = %d %q", code, body)
	}
	// The telemetry surface stays intact underneath the extra routes.
	if code, body := get(t, srv.URL()+"/metrics"); code != http.StatusOK || !strings.Contains(body, "demo_total 1") {
		t.Fatalf("/metrics lost under ServeHandler: %d %q", code, body)
	}
}

func TestServerShutdownDrainsInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := NewMux(NewRegistry())
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "done")
	})
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		body string
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/slow")
		if err != nil {
			got <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- result{resp.StatusCode, string(b)}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New connections are refused once Shutdown has begun; the in-flight
	// request must still complete after we release it.
	time.Sleep(20 * time.Millisecond)
	if _, err := http.Get(srv.URL() + "/healthz"); err == nil {
		t.Error("new request accepted during drain")
	}
	close(release)
	if r := <-got; r.code != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request dropped during drain: %d %q", r.code, r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestServerPprofIndex(t *testing.T) {
	srv := startTestServer(t, NewRegistry())
	code, body := get(t, srv.URL()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, want the profile index", code)
	}
	// A concrete profile endpoint must stream too.
	code, _ = get(t, srv.URL()+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/goroutine = %d", code)
	}
}

package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrometheusGolden pins the exact exposition bytes for a registry
// exercising all three metric types, labeled and unlabeled. Run with
// -update to regenerate testdata/exposition.golden.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("queue_depth", "Current queue depth.", func() float64 { return 42 })

	rv := r.CounterVec("rpc_requests_total", "RPC requests.", "method", "code")
	rv.With("get", "200").Add(3)
	rv.With("put", "500").Add(1.5)

	hv := r.HistogramVec("rpc_seconds", "RPC latency.", []float64{0.01, 0.1, 1}, "method")
	h := hv.With("get")
	// Exactly representable values keep the _sum line byte-stable.
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(8)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusHistogramSeries checks the structural invariants the
// acceptance criteria name: _bucket series are cumulative and end at
// +Inf == _count, and _sum/_count lines exist.
func TestPrometheusHistogramSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("solve_seconds", "Solve latency.", nil)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`solve_seconds_bucket{le="+Inf"} 100`,
		"solve_seconds_count 100",
		"solve_seconds_sum ",
		"# TYPE solve_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative: each _bucket count must be >= the previous.
	prev := -1.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "solve_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q (prev %v)", line, prev)
		}
		prev = v
	}
}

package telemetry

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// scrapeValue writes r and returns the value of the unlabeled sample
// name, failing the test if the exposition lacks it.
func scrapeValue(t *testing.T, r *Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s sample:\n%s", name, b.String())
	return 0
}

func TestRegisterRuntimePopulatesGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE go_goroutines gauge", "# TYPE go_gc_cycles_total gauge",
		"go_heap_alloc_bytes ", "go_gc_pause_seconds_total ",
		"par_workers ", "par_pool_tasks_total ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE "); n != 12 {
		t.Fatalf("runtime exposition has %d families, want 12:\n%s", n, out)
	}
	if v := scrapeValue(t, r, "go_goroutines"); v < 1 {
		t.Fatalf("go_goroutines = %v, want >= 1", v)
	}
	if v := scrapeValue(t, r, "par_workers"); v < 1 {
		t.Fatalf("par_workers = %v, want >= 1", v)
	}
}

// TestRuntimeGaugesReadAtScrape: the runtime gauges are read when the
// registry is written, so a GC between two scrapes shows in the second.
func TestRuntimeGaugesReadAtScrape(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	before := scrapeValue(t, r, "go_gc_cycles_total")
	runtime.GC()
	if after := scrapeValue(t, r, "go_gc_cycles_total"); after <= before {
		t.Fatalf("go_gc_cycles_total %v -> %v across runtime.GC(); want it to move", before, after)
	}
}

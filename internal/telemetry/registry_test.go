package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same name returns the same underlying metric.
	if again := r.Counter("requests_total", "Requests."); again.Value() != 3.5 {
		t.Fatalf("re-registered counter lost state: %v", again.Value())
	}

	g := r.Gauge("depth", "Depth.")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestVecChildCaching(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("cells_total", "Cells.", "problem", "arch")
	a := v.With("MM", "CPU")
	b := v.With("MM", "CPU")
	if a != b {
		t.Fatal("same label values must return the same child")
	}
	other := v.With("MM", "GPU")
	if a == other {
		t.Fatal("different label values must return distinct children")
	}
	a.Inc()
	if other.Value() != 0 {
		t.Fatal("children must not share state")
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "X.", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity must panic")
		}
	}()
	v.With("only-one")
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "first registration wins")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("dual", "conflicting type")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 0.2, 0.5, 1})
	// 10 observations evenly through [0, 1): one per decile.
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) / 10)
	}
	if h.Count() != 10 {
		t.Fatalf("count = %d, want 10", h.Count())
	}
	if got, want := h.Sum(), 4.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Bucket occupancy: (-inf,0.1]=2 {0,0.1}, (0.1,0.2]=1 {0.2},
	// (0.2,0.5]=3 {0.3,0.4,0.5}, (0.5,1]=4 {0.6..0.9}.
	wantCounts := []uint64{2, 1, 3, 4, 0}
	for i, w := range wantCounts {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	// The median rank (5 of 10) lands in the (0.2, 0.5] bucket; linear
	// interpolation puts it between the bounds.
	if q := h.Quantile(0.5); q <= 0.2 || q > 0.5 {
		t.Fatalf("p50 = %v, want within (0.2, 0.5]", q)
	}
	if q := h.Quantile(1); q != 1 {
		t.Fatalf("p100 = %v, want 1 (top finite bound)", q)
	}
	if q := h.Quantile(0); math.IsNaN(q) {
		t.Fatalf("p0 on a populated histogram must not be NaN")
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("big_seconds", "Latency.", []float64{1, 2})
	h.Observe(100) // +Inf bucket
	if q := h.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", q)
	}
}

func TestEmptyHistogramQuantileNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty_seconds", "Latency.", nil)
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("quantile of empty histogram = %v, want NaN", q)
	}
}

func TestUnsortedBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets must panic")
		}
	}()
	r.Histogram("bad", "B.", []float64{2, 1})
}

// TestConcurrentRegistry hammers creation, updates, and exposition from
// many goroutines at once — the -race check for the lock-free value paths
// and the creation/exposition locking.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("ops_total", "Ops.", "kind")
	hv := r.HistogramVec("op_seconds", "Op latency.", nil, "kind")
	g := r.Gauge("level", "Level.")
	kinds := []string{"a", "b", "c", "d"}

	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := kinds[w%len(kinds)]
			for i := 0; i < perWorker; i++ {
				cv.With(kind).Inc()
				hv.With(kind).Observe(float64(i) * 1e-5)
				g.Add(1)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var total float64
	for _, k := range kinds {
		total += cv.With(k).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("counters sum to %v, want %d", total, workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*perWorker)
	}
}

// TestDefaultRecordsOnlyWhenEnabled: Default records nothing, and creates
// no labeled child, until Enable(true); a NewRegistry records from the
// start. Unlabeled handles are bound while off, as the package-level
// handles in frontier, bsp and graph are at init. Default outlives the
// test, so it compares deltas and uses a label value only ever seen off.
func TestDefaultRecordsOnlyWhenEnabled(t *testing.T) {
	defer Enable(Default.on.Load())
	Enable(false)
	vec := Default.CounterVec("test_gate_total", "Gate.", "state")
	c := Default.Counter("test_gate_unlabeled_total", "Gate.")
	h := Default.Histogram("test_gate_seconds", "Gate.", nil)
	c0, h0 := c.Value(), h.Count()
	vec.With("off").Inc()
	c.Add(2)
	h.Observe(1)
	if c.Value() != c0 || h.Count() != h0 {
		t.Fatalf("recorded while off: counter %v -> %v, histogram count %d -> %d",
			c0, c.Value(), h0, h.Count())
	}
	vec.f.mu.Lock()
	_, created := vec.f.children[labelKey([]string{"off"})]
	vec.f.mu.Unlock()
	if created {
		t.Fatal("With created a child while off")
	}

	Enable(true)
	v0 := vec.With("on").Value()
	vec.With("on").Inc()
	c.Add(2)
	h.Observe(1)
	if got := vec.With("on").Value(); got != v0+1 || c.Value() != c0+2 || h.Count() != h0+1 {
		t.Fatalf("after Enable(true): vec +%v, counter +%v, histogram count +%d; want +1, +2, +1",
			got-v0, c.Value()-c0, h.Count()-h0)
	}

	own := NewRegistry().Counter("own_total", "Own.")
	own.Inc()
	if own.Value() != 1 {
		t.Fatalf("NewRegistry counter = %v without Enable, want 1", own.Value())
	}
}

// TestDisabledPublicationZeroAlloc pins the cost of telemetry that is
// off: a publication on a disabled Default allocates nothing.
func TestDisabledPublicationZeroAlloc(t *testing.T) {
	defer Enable(Default.on.Load())
	Enable(false)
	cv := Default.CounterVec("test_off_rounds_total", "Off.", "direction")
	hv := Default.HistogramVec("test_off_seconds", "Off.", nil, "problem", "arch")
	h := Default.Histogram("test_off_kernel_seconds", "Off.", nil)
	dir, a, b := "push", "MM", "GPU"
	if n := testing.AllocsPerRun(100, func() {
		cv.With(dir).Inc()
		cv.With(dir).Add(3)
		hv.With(a, b).Observe(0.5)
		h.Observe(0.5)
	}); n != 0 {
		t.Fatalf("disabled publication allocates %v times per run, want 0", n)
	}
}

// TestFuncMetricsReadAtWrite: a func metric is evaluated at each write,
// whatever the switch says, and re-registering replaces the func.
func TestFuncMetricsReadAtWrite(t *testing.T) {
	r := newRegistry(false)
	n := 1.0
	r.CounterFunc("owned_total", "Owned count.", func() float64 { return n })
	r.GaugeFunc("owned_level", "Owned level.", func() float64 { return -n })
	n = 4
	if got := scrapeValue(t, r, "owned_total"); got != 4 {
		t.Fatalf("owned_total = %v, want 4", got)
	}
	if got := scrapeValue(t, r, "owned_level"); got != -4 {
		t.Fatalf("owned_level = %v, want -4", got)
	}
	r.CounterFunc("owned_total", "Owned count.", func() float64 { return 9 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE owned_total counter\nowned_total 9\n",
		"# TYPE owned_level gauge\nowned_level -4\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

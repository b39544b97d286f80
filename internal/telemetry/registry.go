// Package telemetry is the live half of the observability layer: a
// concurrent metrics registry (counters, fixed-bucket histograms with
// quantile estimation, and counters and gauges read from funcs at scrape
// time), the Go
// runtime and par worker-pool gauges, and an embedded HTTP server
// exposing Prometheus text-format /metrics, /healthz, /debug/pprof/*, and
// a live /trace JSON snapshot of the internal/trace span tree.
//
// Where internal/trace answers "where did the time of this finished run
// go", telemetry answers "what is the process doing right now": the
// harness publishes per-cell decomposition/solve latencies into
// histograms keyed by {problem, algo, arch, graph}, the bsp machine
// publishes per-superstep kernel timings, and the heap, GC, goroutine,
// and pool-scheduler gauges are read from their owners at each scrape.
// cmd/benchall and cmd/symbreak wire the layer to the command line
// (-serve ADDR); see DESIGN.md § Observability.
//
// Each Registry carries its own on/off switch, and every update checks it
// with one atomic load, so call sites publish unconditionally. NewRegistry
// records from the start; Default records only after Enable(true), so
// solvers pay one load per publication when no server is running. Metric
// values themselves are lock-free (atomics); the registry mutex is touched
// only on metric creation and exposition.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Enable switches recording on Default on or off. Off (the default)
// makes every update of a Default metric a no-op after one atomic load.
func Enable(on bool) { Default.on.Store(on) }

// Default is the process-global registry. The HTTP server and the
// harness/bsp/frontier/graph instrumentation use it; it records only
// after Enable(true). Libraries that want an isolated namespace, always
// recording, can create their own with NewRegistry.
var Default = newRegistry(false)

// DefBuckets are the default latency buckets in seconds: exponential from
// 10µs to 10s, matched to the paper's cell-time range (decompositions in
// the tens of microseconds on small instances up to multi-second solves
// at scale).
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families keyed by name. All methods are safe for
// concurrent use. Creation (CounterVec etc.) locks the registry; the
// returned metric handles update via atomics only, and only while the
// registry's switch is on.
type Registry struct {
	on       atomic.Bool
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry that records from the start.
func NewRegistry() *Registry { return newRegistry(true) }

func newRegistry(on bool) *Registry {
	r := &Registry{families: map[string]*family{}}
	r.on.Store(on)
	return r
}

// While a registry is off, its Vecs' With returns these shared handles
// instead of creating a child. They check off, which is never switched
// on, so they record nothing.
var (
	off            atomic.Bool
	inertCounter   = &Counter{on: &off}
	inertHistogram = &Histogram{on: &off}
)

// family is one named metric family: a type, a help string, a label
// schema, and one child metric per observed label-value combination.
type family struct {
	name       string
	help       string
	typ        string // "counter", "gauge", "histogram"
	labelNames []string
	buckets    []float64    // histograms only
	on         *atomic.Bool // the registry's switch

	mu       sync.Mutex
	children map[string]any // labelKey -> *Counter | *Histogram | func() float64
}

// labelKey joins label values with a separator that cannot appear in a
// validated label value.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// lookup returns the family registered under name, creating it with the
// given schema on first use. Re-registering with a different type or
// label arity panics: it is always a programming error.
func (r *Registry) lookup(name, help, typ string, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labelNames), f.typ, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, buckets: buckets, on: &r.on,
		children: map[string]any{},
	}
	r.families[name] = f
	return f
}

// child returns the metric for the given label values, creating one of
// the family's type on first use. Panics if the arity does not match the
// schema.
func (f *family) child(values []string) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	labels := append([]string(nil), values...)
	var c any
	switch f.typ {
	case "counter":
		c = &Counter{on: f.on, labels: labels}
	default:
		c = &Histogram{on: f.on, labels: labels, buckets: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1)} // +1 for +Inf
	}
	f.children[key] = c
	return c
}

// CounterFunc registers an unlabeled counter whose value is f(), called
// each time the registry is written. Registering the name again replaces
// f. Funcs are read whatever the switch says: they expose a count that
// its owner keeps anyway.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.lookup(name, help, "counter", nil, nil).setFunc(f)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.lookup(name, help, "gauge", nil, nil).setFunc(f)
}

func (f *family) setFunc(fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.children[labelKey(nil)] = fn
}

// Counter is a monotonically increasing value. Updates are lock-free.
type Counter struct {
	on     *atomic.Bool
	labels []string
	bits   atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates v. Negative deltas are a caller bug for counters; they
// are applied as-is (the exposition does not police monotonicity).
func (c *Counter) Add(v float64) {
	if c.on.Load() {
		atomicAddFloat(&c.bits, v)
	}
}

// Value returns the current value.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// atomicAddFloat adds v to a float64 stored as uint64 bits via CAS.
func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus a
// running sum and total count. Observe is lock-free; concurrent readers
// (exposition, Quantile) see a near-consistent snapshot — bucket counts
// and the sum may momentarily disagree by in-flight observations, which
// Prometheus scraping tolerates by design.
type Histogram struct {
	on      *atomic.Bool
	labels  []string
	buckets []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if !h.on.Load() {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	atomicAddFloat(&h.sumBits, v)
	h.count.Add(1)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank — the classic
// histogram_quantile estimate. Returns NaN with no observations. Values
// landing in the +Inf overflow bucket clamp to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			if i >= len(h.buckets) { // overflow bucket: clamp
				return h.buckets[len(h.buckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.buckets[i-1]
			}
			hi := h.buckets[i]
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.buckets[len(h.buckets)-1]
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, "counter", labelNames, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Handles are cached: repeated calls with equal values return
// the same *Counter. While the registry is off, With returns a shared
// inert counter without locking or creating a child, so a disabled
// publication costs one atomic load; a handle taken then stays inert, so
// hoist one only from a registry that is on.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if !v.f.on.Load() {
		return inertCounter
	}
	return v.f.child(labelValues).(*Counter)
}

// Counter registers (or returns) an unlabeled counter. The handle is the
// real child even while the registry is off, so package-level handles
// created at init start recording once it is switched on.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).f.child(nil).(*Counter)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family with the
// given upper bounds (nil = DefBuckets). Bounds must be sorted ascending;
// an implicit +Inf bucket is appended.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("telemetry: histogram buckets must be sorted ascending: " + name)
	}
	return &HistogramVec{r.lookup(name, help, "histogram", labelNames, buckets)}
}

// With returns the histogram for the given label values, inert while the
// registry is off (see CounterVec.With).
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if !v.f.on.Load() {
		return inertHistogram
	}
	return v.f.child(labelValues).(*Histogram)
}

// Histogram registers (or returns) an unlabeled histogram, bound like
// Counter.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).f.child(nil).(*Histogram)
}

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// Config configures a Service. Zero fields take the documented defaults.
type Config struct {
	// Corpus is the set of graphs answerable by name. nil means an empty
	// corpus (inline edge lists still work).
	Corpus *Corpus
	// Registry receives the symbreak_serve_* metrics; nil uses
	// telemetry.Default. The counts the Service keeps itself are
	// registered as funcs and replace any earlier Service's on r.
	Registry *telemetry.Registry
	// WorkerBudget is the admission budget in abstract worker units;
	// 0 uses par.Workers(). A request costs 1 + edges/EdgesPerUnit units.
	WorkerBudget int
	// QueueDepth bounds the admission wait queue; requests beyond it are
	// rejected with 429. 0 means DefaultQueueDepth; use a negative value
	// for an actually zero-length queue (immediate 429 under load).
	QueueDepth int
	// QueueTimeout bounds the time a request may wait for admission
	// before a 503; 0 means DefaultQueueTimeout.
	QueueTimeout time.Duration
	// CacheBytes budgets the solution LRU; 0 means DefaultCacheBytes,
	// negative disables caching.
	CacheBytes int64
	// EdgesPerUnit sets how many graph edges cost one admission unit;
	// 0 means DefaultEdgesPerUnit.
	EdgesPerUnit int64
	// MaxInlineEdges bounds uploaded edge lists and their vertex
	// counts (explicit or inferred); 0 means DefaultMaxInlineEdges.
	// Larger uploads get 413.
	MaxInlineEdges int
	// FlightRecorder sets how many completed solve requests the
	// /debug/requests ring retains (the slowest few are pinned beyond
	// it); 0 means DefaultFlightRecorder, negative disables recording.
	FlightRecorder int
	// Log, when non-nil, receives one structured line per completed
	// solve request; nil logs nothing.
	Log *telemetry.RequestLog
	// SlowLog suppresses request-log lines for requests faster than
	// this threshold; 0 logs every request.
	SlowLog time.Duration
}

// Defaults for the zero Config fields.
const (
	DefaultQueueDepth     = 64
	DefaultFlightRecorder = 256
	DefaultQueueTimeout   = 2 * time.Second
	DefaultCacheBytes     = 256 << 20
	DefaultEdgesPerUnit   = 256 << 10
	DefaultMaxInlineEdges = 1 << 20
)

// Service is the solve service: handlers, coalescing, cache, and
// admission state. Create with New, mount with Mount.
type Service struct {
	corpus *Corpus
	cache  *lruCache
	adm    *admission
	flight *flightGroup
	rec    *flightRecorder
	cfg    Config
	m      metrics

	// runCount counts underlying solver runs — what
	// symbreak_serve_runs_total reads and the coalescing test asserts
	// equals 1 for N concurrent duplicates.
	runCount atomic.Int64

	// testHookBeforeRun, when set, runs inside the singleflight leader
	// after admission and before the solver — the synchronization point
	// the coalescing and admission tests use to hold a run open.
	testHookBeforeRun func()
}

// metrics holds the per-event symbreak_serve_* handles. Vec children are
// looked up at the publication sites, never pre-materialized. Counts the
// Service keeps itself are read from Snapshot at scrape time instead
// (registerCounts).
type metrics struct {
	requests   *telemetry.CounterVec   // {endpoint, code}
	reqSeconds *telemetry.HistogramVec // {endpoint}
	rejected   *telemetry.CounterVec   // {reason}
	solveSecs  *telemetry.HistogramVec // {problem, algo, arch}
}

// New builds a Service from cfg, registering its metrics.
func New(cfg Config) *Service {
	if cfg.Corpus == nil {
		cfg.Corpus = NewCorpus()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.WorkerBudget == 0 {
		cfg.WorkerBudget = par.Workers()
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	} else if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.EdgesPerUnit == 0 {
		cfg.EdgesPerUnit = DefaultEdgesPerUnit
	}
	if cfg.MaxInlineEdges == 0 {
		cfg.MaxInlineEdges = DefaultMaxInlineEdges
	}
	if cfg.FlightRecorder == 0 {
		cfg.FlightRecorder = DefaultFlightRecorder
	} else if cfg.FlightRecorder < 0 {
		cfg.FlightRecorder = 0
	}
	r := cfg.Registry
	s := &Service{
		corpus: cfg.Corpus,
		cache:  newLRUCache(cfg.CacheBytes),
		adm:    newAdmission(cfg.WorkerBudget, cfg.QueueDepth, cfg.QueueTimeout),
		flight: newFlightGroup(),
		rec:    newFlightRecorder(cfg.FlightRecorder),
		cfg:    cfg,
		m: metrics{
			requests: r.CounterVec("symbreak_serve_requests_total",
				"Requests served, by endpoint and HTTP status code.", "endpoint", "code"),
			reqSeconds: r.HistogramVec("symbreak_serve_request_seconds",
				"End-to-end request latency, by endpoint.", nil, "endpoint"),
			rejected: r.CounterVec("symbreak_serve_rejected_total",
				"Requests rejected by admission control, by reason.", "reason"),
			solveSecs: r.HistogramVec("symbreak_serve_solve_seconds",
				"Wall time of underlying solver runs.", nil, "problem", "algo", "arch"),
		},
	}
	s.registerCounts(r)
	return s
}

// registerCounts exposes the counts the Service keeps itself as funcs
// over Snapshot, so every scrape reads them live instead of a copy.
func (s *Service) registerCounts(r *telemetry.Registry) {
	read := func(field func(Stats) float64) func() float64 {
		return func() float64 { return field(s.Snapshot()) }
	}
	r.CounterFunc("symbreak_serve_runs_total",
		"Underlying solver runs started (coalesced and cached requests do not run).",
		read(func(st Stats) float64 { return float64(st.Runs) }))
	r.CounterFunc("symbreak_serve_coalesced_total",
		"Requests that joined an identical in-flight solve instead of running.",
		read(func(st Stats) float64 { return float64(st.Coalesced) }))
	r.CounterFunc("symbreak_serve_cache_hits_total",
		"Solve requests answered from the solution cache.",
		read(func(st Stats) float64 { return float64(st.CacheHits) }))
	r.CounterFunc("symbreak_serve_cache_misses_total",
		"Solve requests that missed the solution cache.",
		read(func(st Stats) float64 { return float64(st.CacheMisses) }))
	r.CounterFunc("symbreak_serve_cache_evictions_total",
		"Cache entries evicted to hold the byte budget.",
		read(func(st Stats) float64 { return float64(st.Evicted) }))
	r.GaugeFunc("symbreak_serve_cache_bytes",
		"Resident bytes in the solution cache.",
		read(func(st Stats) float64 { return float64(st.CacheBytes) }))
	r.GaugeFunc("symbreak_serve_cache_entries",
		"Entries in the solution cache.",
		read(func(st Stats) float64 { return float64(st.CacheEntries) }))
	r.GaugeFunc("symbreak_serve_admission_in_use",
		"Worker-budget units currently held by running solves.",
		read(func(st Stats) float64 { return float64(st.AdmissionInUse) }))
	r.GaugeFunc("symbreak_serve_admission_queued",
		"Requests waiting in the admission queue.",
		read(func(st Stats) float64 { return float64(st.AdmissionQueued) }))
}

// Mount registers the service endpoints on mux — typically the telemetry
// mux, so /solve and /graphs share the listener with /metrics, /healthz,
// /trace and pprof.
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/solve", s.instrument("solve", s.handleSolve))
	mux.HandleFunc("/graphs", s.instrument("graphs", s.handleGraphs))
	mux.HandleFunc("/debug/requests", s.instrument("debug_requests", s.handleRequests))
	mux.HandleFunc("/debug/requests/", s.instrument("debug_requests", s.handleRequestByID))
}

// CorpusLen reports how many graphs the service answers by name.
func (s *Service) CorpusLen() int { return s.corpus.Len() }

// Stats is a point-in-time snapshot of the service counters, for
// /metrics, tests and the daemon's shutdown log line.
type Stats struct {
	Runs, Coalesced                 int64
	CacheHits, CacheMisses, Evicted uint64
	CacheBytes                      int64
	CacheEntries                    int
	AdmissionInUse, AdmissionQueued int
}

// Snapshot returns the current Stats.
func (s *Service) Snapshot() Stats {
	hits, misses, ev, bytes, ents := s.cache.stats()
	inUse, _, queued := s.adm.stats()
	return Stats{
		Runs:            s.runCount.Load(),
		Coalesced:       s.flight.dups.Load(),
		CacheHits:       hits,
		CacheMisses:     misses,
		Evicted:         ev,
		CacheBytes:      bytes,
		CacheEntries:    ents,
		AdmissionInUse:  inUse,
		AdmissionQueued: queued,
	}
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint request counter and
// latency histogram.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.m.requests.With(endpoint, strconv.Itoa(sw.code)).Inc()
		s.m.reqSeconds.With(endpoint).Observe(time.Since(start).Seconds())
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Service) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	entries := s.corpus.Entries()
	infos := make([]graphInfo, len(entries))
	for i, e := range entries {
		infos[i] = graphInfoFor(e.Name, e.Class, e.G, e.Fingerprint)
	}
	writeJSON(w, http.StatusOK, graphsResponse{Graphs: infos})
}

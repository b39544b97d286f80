package serve

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Request IDs are 16 hex characters: a per-process boot nonce in the
// high half (so ids from different server runs don't collide in logs)
// and an atomic sequence number in the low half (so ids within one run
// are unique by construction, with no per-request entropy draw).
var (
	reqBoot = bootNonce()
	reqSeq  atomic.Uint64
)

func bootNonce() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: fall back to a fixed odd constant — ids stay
		// unique within the process, which is the property tests rely on.
		return 0x9e3779b9
	}
	return binary.BigEndian.Uint32(b[:])
}

func newRequestID() string {
	return fmt.Sprintf("%08x%08x", reqBoot, uint32(reqSeq.Add(1)))
}

// Phase is one contiguous slice of a request's wall time. Phases are
// stamped from a single monotonic clock sequence on the request path,
// so for every record the phase durations sum to WallNs exactly (up to
// the clamped solver split, see splitRun).
type Phase struct {
	Name  string `json:"name"`
	DurNs int64  `json:"dur_ns"`
}

// RequestRecord is one completed solve request as the flight recorder
// keeps it and /debug/requests serves it. Everything is filled in
// before the record is handed to the recorder; records are immutable
// after that, so handlers can serve shared pointers without copying.
type RequestRecord struct {
	ID    string    `json:"id"`
	Seq   uint64    `json:"seq"`
	Start time.Time `json:"start"`

	Status int    `json:"status"`
	WallNs int64  `json:"wall_ns"`
	Cache  string `json:"cache,omitempty"` // hit | miss | coalesced

	Graph       string `json:"graph,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Problem     string `json:"problem,omitempty"`
	Algo        string `json:"algo,omitempty"`
	Arch        string `json:"arch,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`

	QueueNs int64       `json:"queue_ns"`
	Phases  []Phase     `json:"phases,omitempty"`
	Report  *reportInfo `json:"report,omitempty"`
	Error   string      `json:"error,omitempty"`

	// Trace is the request's span tree, carried by every singleflight
	// leader that finished its solve. Omitted from the list view; the
	// detail view serves it, and ?format=chrome renders it for Perfetto.
	Trace *trace.Export `json:"trace,omitempty"`

	// Slow marks records pinned by the slowest-K set in list views.
	Slow bool `json:"slow,omitempty"`
}

// requestTrack accumulates a RequestRecord along the request path. The
// phase stamps all come from one clock sequence: phase(name) closes the
// interval since the previous stamp, so the intervals tile [start, last]
// with no gaps and no overlaps.
type requestTrack struct {
	id    string
	start time.Time
	last  time.Time
	rec   RequestRecord
}

// beginRequest mints the request id, echoes it on the response header,
// and starts the clock.
func (s *Service) beginRequest(w http.ResponseWriter) *requestTrack {
	now := time.Now()
	rt := &requestTrack{id: newRequestID(), start: now, last: now}
	rt.rec.ID = rt.id
	rt.rec.Start = now
	w.Header().Set("X-Symbreak-Request-Id", rt.id)
	return rt
}

// phase closes the interval since the previous stamp under name.
func (rt *requestTrack) phase(name string) {
	now := time.Now()
	rt.rec.Phases = append(rt.rec.Phases, Phase{Name: name, DurNs: now.Sub(rt.last).Nanoseconds()})
	rt.last = now
}

// splitRun closes the interval since the previous stamp as three phases
// using the solver's own report: decomp and solve as measured inside
// core, and the remainder (verification, report assembly) as verify.
// The remainder is clamped at zero so a clock-granularity mismatch can
// never produce a negative phase.
func (rt *requestTrack) splitRun(rep reportInfo) {
	now := time.Now()
	total := now.Sub(rt.last).Nanoseconds()
	residual := total - rep.DecompNs - rep.SolveNs
	if residual < 0 {
		residual = 0
	}
	rt.rec.Phases = append(rt.rec.Phases,
		Phase{Name: "decomp", DurNs: rep.DecompNs},
		Phase{Name: "solve", DurNs: rep.SolveNs},
		Phase{Name: "verify", DurNs: residual},
	)
	rt.last = now
}

// setCoords copies the solve coordinates onto the record once parsing
// has resolved them.
func (rt *requestTrack) setCoords(ps *parsedSolve) {
	rt.rec.Graph = ps.info.Name
	rt.rec.Fingerprint = ps.info.Fingerprint
	rt.rec.Problem = ps.problem.String()
	rt.rec.Algo = ps.strategy.String()
	rt.rec.Arch = ps.arch.String()
	rt.rec.Seed = ps.opt.Seed
}

// finish stamps the final write phase, seals the record, hands it to
// the flight recorder, and emits the per-request log line.
func (s *Service) finish(rt *requestTrack, status int) {
	rt.phase("write")
	rec := &rt.rec
	rec.Status = status
	rec.WallNs = rt.last.Sub(rt.start).Nanoseconds()
	s.rec.add(rec)
	if telemetry.Enabled() && s.cfg.Log != nil && rec.WallNs >= s.cfg.SlowLog.Nanoseconds() {
		s.emitLog(rec)
	}
}

// finishError writes an error response and seals the record with it.
func (s *Service) finishError(w http.ResponseWriter, rt *requestTrack, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	rt.rec.Error = msg
	writeError(w, code, "%s", msg)
	s.finish(rt, code)
}

// emitLog writes the one structured line for rec. Key order is fixed so
// text lines diff cleanly and json lines are byte-deterministic for a
// given record.
func (s *Service) emitLog(rec *RequestRecord) {
	if !telemetry.Enabled() {
		return
	}
	kv := make([]any, 0, 24+2*len(rec.Phases))
	kv = append(kv,
		"ts", rec.Start,
		"id", rec.ID,
		"status", rec.Status,
		"wall", time.Duration(rec.WallNs),
	)
	if rec.Cache != "" {
		kv = append(kv, "cache", rec.Cache)
	}
	if rec.Graph != "" {
		kv = append(kv,
			"graph", rec.Graph,
			"fingerprint", rec.Fingerprint,
			"problem", rec.Problem,
			"algo", rec.Algo,
			"arch", rec.Arch,
			"seed", rec.Seed,
		)
	}
	kv = append(kv, "queue", time.Duration(rec.QueueNs))
	if rec.Report != nil {
		kv = append(kv, "rounds", rec.Report.Rounds)
	}
	for _, ph := range rec.Phases {
		kv = append(kv, "phase_"+ph.Name, time.Duration(ph.DurNs))
	}
	if rec.Error != "" {
		kv = append(kv, "err", rec.Error)
	}
	s.cfg.Log.Emit(kv...)
}

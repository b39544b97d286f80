package serve

import (
	"net/http"
	"strings"
	"sync"

	"repro/internal/trace"
)

// slowestKept is how many slowest requests the recorder pins outside
// the ring, so a latency outlier stays inspectable after the ring has
// churned past it.
const slowestKept = 8

// flightRecorder keeps the last N completed RequestRecords in a ring
// plus the K slowest ever seen, indexed by request id. Records are
// immutable once added, so readers get shared pointers.
//
// Sequencing is deterministic: Seq is assigned under the recorder mutex
// in completion order, the ring holds exactly the cap highest sequence
// numbers present, and the slowest set orders by (wall desc, seq asc) —
// under concurrent completion the contents depend only on the set of
// records and the completion order, never on reader timing.
type flightRecorder struct {
	mu   sync.Mutex
	seq  uint64
	ring []*RequestRecord // circular; next is the slot to overwrite
	next int
	cap  int
	slow []*RequestRecord // wall desc, seq asc; len <= slowestKept
	byID map[string]*RequestRecord
}

// newFlightRecorder returns a recorder keeping the last cap records;
// cap <= 0 disables recording entirely (add becomes a no-op).
func newFlightRecorder(cap int) *flightRecorder {
	return &flightRecorder{cap: cap, byID: map[string]*RequestRecord{}}
}

// add seals rec into the recorder: assigns its sequence number, rotates
// it through the ring, and re-ranks the slowest set.
func (fr *flightRecorder) add(rec *RequestRecord) {
	if fr.cap <= 0 {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.seq++
	rec.Seq = fr.seq

	if len(fr.ring) < fr.cap {
		fr.ring = append(fr.ring, rec)
		fr.next = (fr.next + 1) % fr.cap
	} else {
		old := fr.ring[fr.next]
		fr.ring[fr.next] = rec
		fr.next = (fr.next + 1) % fr.cap
		fr.drop(old)
	}

	// Insert into the slowest set, ordered wall desc then seq asc (ties
	// keep the earlier request, so the set is stable under reordering).
	i := len(fr.slow)
	for i > 0 && slower(rec, fr.slow[i-1]) {
		i--
	}
	if i < slowestKept {
		fr.slow = append(fr.slow, nil)
		copy(fr.slow[i+1:], fr.slow[i:])
		fr.slow[i] = rec
		rec.Slow = true
		if len(fr.slow) > slowestKept {
			last := fr.slow[slowestKept]
			fr.slow = fr.slow[:slowestKept]
			last.Slow = false
			fr.drop(last)
		}
	}
	fr.byID[rec.ID] = rec
}

// slower reports whether a ranks strictly ahead of b in the slowest set.
func slower(a, b *RequestRecord) bool {
	if a.WallNs != b.WallNs {
		return a.WallNs > b.WallNs
	}
	return a.Seq < b.Seq
}

// drop removes old from the id index unless the other set still holds it.
func (fr *flightRecorder) drop(old *RequestRecord) {
	if fr.inRing(old) || fr.inSlow(old) {
		return
	}
	delete(fr.byID, old.ID)
}

func (fr *flightRecorder) inRing(rec *RequestRecord) bool {
	for _, r := range fr.ring {
		if r == rec {
			return true
		}
	}
	return false
}

func (fr *flightRecorder) inSlow(rec *RequestRecord) bool {
	for _, r := range fr.slow {
		if r == rec {
			return true
		}
	}
	return false
}

// list returns the ring newest-first and the slowest set, as shared
// pointers to immutable records.
func (fr *flightRecorder) list() (recent, slowest []*RequestRecord) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	recent = make([]*RequestRecord, 0, len(fr.ring))
	for i := 0; i < len(fr.ring); i++ {
		// next-1 is the newest slot; walk backwards through the ring.
		idx := fr.next - 1 - i
		if idx < 0 {
			idx += len(fr.ring)
		}
		recent = append(recent, fr.ring[idx])
	}
	slowest = append(slowest, fr.slow...)
	return recent, slowest
}

// get returns the record for id, or nil.
func (fr *flightRecorder) get(id string) *RequestRecord {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.byID[id]
}

// len reports how many records the recorder currently indexes.
func (fr *flightRecorder) len() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.byID)
}

// requestsResponse is the GET /debug/requests body: the ring newest
// first, then the pinned slowest set (wall-time descending). Summaries
// omit the span tree; fetch /debug/requests/<id> for it.
type requestsResponse struct {
	Requests []*RequestRecord `json:"requests"`
	Slowest  []*RequestRecord `json:"slowest"`
}

// summaries strips the span trees for the list view.
func summaries(recs []*RequestRecord) []*RequestRecord {
	out := make([]*RequestRecord, len(recs))
	for i, r := range recs {
		cp := *r
		cp.Trace = nil
		out[i] = &cp
	}
	return out
}

// handleRequests serves the flight-recorder list.
func (s *Service) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	recent, slowest := s.rec.list()
	writeJSON(w, http.StatusOK, requestsResponse{
		Requests: summaries(recent),
		Slowest:  summaries(slowest),
	})
}

// handleRequestByID serves one record in full. ?format=chrome renders
// the span tree as a Chrome trace-event file for Perfetto.
func (s *Service) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	rec := s.rec.get(id)
	if rec == nil {
		writeError(w, http.StatusNotFound,
			"no flight-recorder entry for request %q (ring holds the last %d; slowest %d are pinned)",
			id, s.rec.cap, slowestKept)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, rec)
	case "chrome":
		if rec.Trace == nil {
			writeError(w, http.StatusNotFound,
				"request %s recorded no span tree (cached/coalesced response, or no finished solve)", id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		trace.ExportChromeTrace(w, *rec.Trace) //nolint:errcheck // client went away; nothing to do
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or chrome)", format)
	}
}

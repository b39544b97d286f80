package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trace"
)

// solveParams carries the decomposition parameters; zeros mean the
// paper's defaults (core.Options.Normalized resolves them).
type solveParams struct {
	// Parts is the RAND partition count k.
	Parts int `json:"parts,omitempty"`
	// K is the DEGk degree threshold.
	K int `json:"k,omitempty"`
	// Beta is the MPX ball-growing rate.
	Beta float64 `json:"beta,omitempty"`
}

// solveRequest is the POST /solve body. Exactly one of Graph and Edges
// selects the input graph.
type solveRequest struct {
	Graph           string      `json:"graph,omitempty"`
	Edges           [][2]int32  `json:"edges,omitempty"`
	Vertices        int         `json:"vertices,omitempty"`
	Problem         string      `json:"problem"`
	Algo            string      `json:"algo,omitempty"`
	Arch            string      `json:"arch,omitempty"`
	Seed            uint64      `json:"seed,omitempty"`
	Params          solveParams `json:"params,omitempty"`
	IncludeSolution bool        `json:"include_solution,omitempty"`
}

type graphInfo struct {
	Name        string `json:"name"`
	Class       string `json:"class,omitempty"`
	Vertices    int    `json:"vertices"`
	Edges       int64  `json:"edges"`
	Fingerprint string `json:"fingerprint"`
}

func graphInfoFor(name, class string, g *graph.Graph, fp uint64) graphInfo {
	return graphInfo{
		Name:        name,
		Class:       class,
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		Fingerprint: fmt.Sprintf("%016x", fp),
	}
}

type graphsResponse struct {
	Graphs []graphInfo `json:"graphs"`
}

type solutionInfo struct {
	// Kind is "matching", "coloring", or "mis".
	Kind string `json:"kind"`
	// Count is matched edges / palette size / member count.
	Count int64 `json:"count"`
	// Digest is the FNV-1a hash of the full solution payload — the
	// compact determinism witness (core.Result.SolutionDigest).
	Digest string `json:"digest"`
	// Assignment is the full per-vertex vector (mate / color / 0-1
	// membership), present only when the request set include_solution.
	Assignment []int32 `json:"assignment,omitempty"`
}

type reportInfo struct {
	Rounds   int   `json:"rounds"`
	DecompNs int64 `json:"decomp_ns"`
	SolveNs  int64 `json:"solve_ns"`
	TotalNs  int64 `json:"total_ns"`
}

// solveResponse is the POST /solve 200 body. Everything except the
// reportInfo timings is deterministic for a given request; the whole body
// is bit-identical across repeats of the same request on one server
// because coalesced and cached answers reuse the original bytes.
type solveResponse struct {
	Graph    graphInfo    `json:"graph"`
	Problem  string       `json:"problem"`
	Strategy string       `json:"strategy"`
	Algo     string       `json:"algo"`
	Arch     string       `json:"arch"`
	Seed     uint64       `json:"seed"`
	Params   solveParams  `json:"params"`
	Solution solutionInfo `json:"solution"`
	Report   reportInfo   `json:"report"`
}

// solveOutcome is what a singleflight run produces: the marshaled 200
// body shared by the leader and every coalesced follower, plus the
// solver report that coalesced followers copy into their own
// flight-recorder records.
type solveOutcome struct {
	body   []byte
	report reportInfo
}

// parsedSolve is a validated request: the resolved graph plus normalized
// solve coordinates, and the cache/coalescing key derived from them.
type parsedSolve struct {
	info     graphInfo
	g        *graph.Graph
	problem  core.Problem
	strategy core.Strategy // resolved: never StrategyAuto
	arch     core.Arch
	opt      core.Options
	include  bool
	key      string
}

// httpError carries a status code out of request parsing.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// parseSolve validates a request body into a parsedSolve.
func (s *Service) parseSolve(req *solveRequest) (*parsedSolve, *httpError) {
	p, err := cli.ParseProblem(req.Problem)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	algo := req.Algo
	if algo == "" {
		algo = "auto"
	}
	strat, err := cli.ParseStrategy(algo)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	archStr := req.Arch
	if archStr == "" {
		archStr = "cpu"
	}
	arch, err := cli.ParseArch(archStr)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	if req.Params.Parts < 0 || req.Params.K < 0 || req.Params.Beta < 0 {
		return nil, httpErrorf(http.StatusBadRequest, "params must be non-negative, got %+v", req.Params)
	}

	var info graphInfo
	var g *graph.Graph
	switch {
	case req.Graph != "" && len(req.Edges) > 0:
		return nil, httpErrorf(http.StatusConflict,
			"request names corpus graph %q and uploads %d inline edges; provide exactly one graph source",
			req.Graph, len(req.Edges))
	case req.Graph != "":
		e, ok := s.corpus.Get(req.Graph)
		if !ok {
			return nil, httpErrorf(http.StatusNotFound, "unknown graph %q (GET /graphs lists the corpus)", req.Graph)
		}
		g = e.G
		info = graphInfoFor(e.Name, e.Class, e.G, e.Fingerprint)
	case len(req.Edges) > 0:
		// The graph allocates in proportion to its vertex count as well as
		// its edges, so one limit caps both, before anything is built.
		limit := s.cfg.MaxInlineEdges
		if len(req.Edges) > limit {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge,
				"%d inline edges exceed the limit of %d", len(req.Edges), limit)
		}
		if req.Vertices > limit {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge,
				"%d inline vertices exceed the limit of %d", req.Vertices, limit)
		}
		n := req.Vertices
		for _, e := range req.Edges {
			if e[0] < 0 || e[1] < 0 {
				return nil, httpErrorf(http.StatusBadRequest, "negative vertex id in edge [%d,%d]", e[0], e[1])
			}
			if int(e[0]) >= n {
				if req.Vertices > 0 {
					return nil, httpErrorf(http.StatusBadRequest,
						"edge endpoint %d out of range for %d vertices", e[0], req.Vertices)
				}
				n = int(e[0]) + 1
			}
			if int(e[1]) >= n {
				if req.Vertices > 0 {
					return nil, httpErrorf(http.StatusBadRequest,
						"edge endpoint %d out of range for %d vertices", e[1], req.Vertices)
				}
				n = int(e[1]) + 1
			}
		}
		if n > limit {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge,
				"inline edges imply %d vertices (max id + 1), exceeding the limit of %d", n, limit)
		}
		edges := make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		g = graph.FromEdges(n, edges)
		info = graphInfoFor("(inline)", "inline", g, g.Fingerprint())
	default:
		return nil, httpErrorf(http.StatusBadRequest, "request needs a corpus graph name or inline edges")
	}
	// Parts beyond n are empty, and the part count sizes the
	// decomposition's per-part arrays.
	if req.Params.Parts > g.NumVertices() {
		return nil, httpErrorf(http.StatusBadRequest,
			"params.parts %d exceeds the graph's %d vertices", req.Params.Parts, g.NumVertices())
	}

	strategy := strat
	if strategy == core.StrategyAuto {
		strategy = core.TableIStrategy(p, arch)
	}
	opt := core.Options{
		Strategy:  strategy,
		Arch:      arch,
		RandParts: req.Params.Parts,
		DegK:      req.Params.K,
		MPXBeta:   req.Params.Beta,
		Seed:      req.Seed,
	}
	norm := opt.Normalized()
	key := fmt.Sprintf("%s|%v|%v|%v|seed=%d|parts=%d|k=%d|beta=%g|sol=%t",
		info.Fingerprint, p, strategy, arch,
		req.Seed, norm.RandParts, norm.DegK, norm.MPXBeta, req.IncludeSolution)
	return &parsedSolve{
		info: info, g: g, problem: p, strategy: strategy, arch: arch,
		opt: opt, include: req.IncludeSolution, key: key,
	}, nil
}

// cost translates a graph size into admission units.
func (s *Service) cost(g *graph.Graph) int {
	return 1 + int(g.NumEdges()/s.cfg.EdgesPerUnit)
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt := s.beginRequest(w)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.finishError(w, rt, http.StatusMethodNotAllowed, "use POST")
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req solveRequest
	if err := dec.Decode(&req); err != nil {
		s.finishError(w, rt, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ps, herr := s.parseSolve(&req)
	if herr != nil {
		s.finishError(w, rt, herr.code, "%s", herr.msg)
		return
	}
	rt.setCoords(ps)
	rt.phase("parse")

	if body, ok := s.cache.get(ps.key); ok {
		rt.rec.Cache = "hit"
		rt.phase("lookup")
		writeSolveBody(w, body, "hit")
		s.finish(rt, http.StatusOK)
		return
	}
	rt.phase("lookup")

	// Only the singleflight leader's closure runs, on the leader's own
	// goroutine — so rt inside it is always the leader's track, and the
	// queue/decomp/solve/verify/finalize phases land on the leader's
	// record. Followers spend the same interval blocked in do; their
	// records call it "coalesced".
	out, err, shared := s.flight.do(ps.key, func() (*solveOutcome, error) {
		return s.runSolve(ps, rt)
	})
	if err != nil {
		// The leader already stamped its phases inside runSolve; only a
		// follower needs the blocked interval accounted for.
		if shared {
			rt.phase("coalesced")
		}
		rt.rec.Error = err.Error()
		s.finish(rt, s.writeSolveError(w, err))
		return
	}
	disposition := "miss"
	if shared {
		disposition = "coalesced"
		rt.phase("coalesced")
	}
	rt.rec.Cache = disposition
	rep := out.report
	rt.rec.Report = &rep
	writeSolveBody(w, out.body, disposition)
	s.finish(rt, http.StatusOK)
}

// runSolve is the singleflight leader body: admission, the solver run,
// response marshaling, cache fill. It records onto the leader's own
// track: queue wait, the solver phase split, and a per-request span tree
// in its own Collector, whose request span core's spans open under, so
// concurrent requests never interleave spans.
func (s *Service) runSolve(ps *parsedSolve, rt *requestTrack) (*solveOutcome, error) {
	col := trace.NewCollector()
	reqSpan := col.Root().Beginf("request %s", rt.id)

	qstart := time.Now()
	qspan := reqSpan.Begin("queue")
	release, err := s.adm.acquire(s.cost(ps.g))
	qspan.End()
	rt.rec.QueueNs = time.Since(qstart).Nanoseconds()
	rt.phase("queue")
	if err != nil {
		reqSpan.End()
		return nil, err
	}
	defer release()
	if s.testHookBeforeRun != nil {
		s.testHookBeforeRun()
	}

	s.runCount.Add(1)
	start := time.Now()
	opt := ps.opt
	opt.Trace = reqSpan
	res, err := core.SolveVerified(ps.g, ps.problem, opt)
	if err != nil {
		reqSpan.End()
		rt.phase("run")
		return nil, err
	}
	s.m.solveSecs.With(ps.problem.String(), res.Report.StrategyName, ps.arch.String()).
		Observe(time.Since(start).Seconds())
	rep := reportInfo{
		Rounds:   res.Report.Rounds,
		DecompNs: res.Report.Decomp.Nanoseconds(),
		SolveNs:  res.Report.Solve.Nanoseconds(),
		TotalNs:  res.Report.Total().Nanoseconds(),
	}
	rt.splitRun(rep)

	fspan := reqSpan.Begin("finalize")
	norm := ps.opt.Normalized()
	resp := solveResponse{
		Graph:    ps.info,
		Problem:  ps.problem.String(),
		Strategy: ps.strategy.String(),
		Algo:     res.Report.StrategyName,
		Arch:     ps.arch.String(),
		Seed:     ps.opt.Seed,
		Params:   solveParams{Parts: norm.RandParts, K: norm.DegK, Beta: norm.MPXBeta},
		Solution: solutionFor(res, ps.include),
		Report:   rep,
	}
	body, err := json.Marshal(resp)
	if err != nil {
		fspan.End()
		reqSpan.End()
		rt.phase("finalize")
		return nil, err
	}
	s.cache.put(ps.key, body)
	fspan.End()
	reqSpan.End()
	rt.phase("finalize")
	rt.rec.Trace = &col.Snapshot().Children[0]
	return &solveOutcome{body: body, report: rep}, nil
}

// solutionFor summarizes (and optionally embeds) the solution vector.
func solutionFor(res *core.Result, include bool) solutionInfo {
	info := solutionInfo{
		Count:  res.SolutionCount(),
		Digest: fmt.Sprintf("%016x", res.SolutionDigest()),
	}
	switch {
	case res.Matching != nil:
		info.Kind = "matching"
		if include {
			info.Assignment = res.Matching.Mate
		}
	case res.Coloring != nil:
		info.Kind = "coloring"
		if include {
			info.Assignment = res.Coloring.Color
		}
	case res.IndepSet != nil:
		info.Kind = "mis"
		if include {
			info.Assignment = make([]int32, len(res.IndepSet.In))
			for i, in := range res.IndepSet.In {
				if in {
					info.Assignment[i] = 1
				}
			}
		}
	}
	return info
}

// writeSolveBody writes a marshaled 200 response with the cache
// disposition header.
func writeSolveBody(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Symbreak-Cache", disposition)
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client went away; nothing to do
}

// writeSolveError maps run errors to HTTP statuses: admission rejections
// to 429/503 with Retry-After, everything else to 500. It returns the
// status it wrote so the caller can seal the flight-recorder entry.
func (s *Service) writeSolveError(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		s.m.rejected.With("queue_full").Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return http.StatusTooManyRequests
	case errors.Is(err, errQueueTimeout):
		s.m.rejected.With("timeout").Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return http.StatusServiceUnavailable
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return http.StatusInternalServerError
	}
}

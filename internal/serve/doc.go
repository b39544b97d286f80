// Package serve is the request-serving layer: symmetry breaking as a
// service. It mounts a small HTTP/JSON API — POST /solve, GET /graphs —
// onto the telemetry mux (internal/telemetry), so one listener carries
// solves, /metrics, /healthz, /trace and pprof.
//
// A Service wraps a Corpus of named, fingerprinted graphs (dataset
// instances generated at startup and/or edge-list files from a directory)
// and answers solve requests off the persistent par worker pool. Three
// production mechanics make repeated traffic cheap and overload survivable:
//
//   - Request coalescing. Concurrent identical solves — same graph
//     fingerprint × problem × strategy × arch × seed × normalized
//     parameters — share one solver run through a singleflight group.
//     N duplicates in flight cost one run; the followers are counted in
//     symbreak_serve_coalesced_total and marked X-Symbreak-Cache:
//     coalesced.
//
//   - Solution cache. Completed responses land in a byte-budgeted LRU
//     keyed by the same request key. A hit answers from memory with the
//     exact bytes of the original response (X-Symbreak-Cache: hit), which
//     together with per-seed solver determinism makes repeat responses
//     bit-identical. Eviction is size-driven (Config.CacheBytes);
//     hit/miss/eviction counts and resident bytes are exported.
//
//   - Admission control. Each request is charged a worker-budget cost
//     proportional to its graph's edge count (1 + m/EdgesPerUnit units,
//     clamped to the budget); a run starts only when the cost fits in
//     Config.WorkerBudget. Excess requests wait in a bounded FIFO queue:
//     when the queue is full the request is rejected immediately with
//     429, and a queued request that cannot start within
//     Config.QueueTimeout gets 503 — both with Retry-After — so one huge
//     graph delays, but never starves or collapses, the pool.
//
// Responses carry the solution's size and FNV-1a digest
// (core.Result.SolutionDigest) rather than defaulting to the full
// assignment; include_solution opts into the complete vector. The
// symbreak_serve_* counts the Service keeps itself (runs, coalesced,
// cache and admission state) are read from Snapshot at each scrape; the
// per-event metrics record while the registry's switch is on. See
// docs/API.md for the wire format and docs/OPS.md for operating the
// daemon.
package serve

// Command symload drives a running symbreak daemon with a steady stream
// of POST /solve requests and reports the latency distribution, making
// capacity planning (docs/OPS.md) a measurement instead of a guess.
//
// Usage:
//
//	symbreak -serve :9090 -corpus all &
//	symload -addr http://127.0.0.1:9090 -qps 50 -duration 10s
//
// Requests are issued open-loop at -qps (a late response does not delay
// the next request), spread over -graphs and -seeds so the cache-hit mix
// is controllable: -seeds 1 converges to pure cache hits, large -seeds
// keeps the solver busy. Latencies land in a telemetry histogram and the
// summary prints p50/p95/p99 alongside the server-visible status counts.
// Exit status is 1 if any request failed with a status other than 200 or
// the intentional overload signals 429/503.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// outcome is one completed request as the driver saw it: transport
// error or status, plus the daemon-assigned request id and the
// client-observed latency.
type outcome struct {
	status int
	err    error
	id     string
	dur    time.Duration
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9090", "base URL of the symbreak daemon")
	qps := flag.Float64("qps", 20, "target request rate (open loop)")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	concurrency := flag.Int("concurrency", 32, "max in-flight requests")
	problem := flag.String("problem", "mm", "problem to request: mm, color, or mis")
	algo := flag.String("algo", "auto", "algo to request: auto, baseline, bridge, rand, degk, or mpx")
	graphs := flag.String("graphs", "", "comma-separated corpus graph names to rotate over (empty = everything GET /graphs lists)")
	seeds := flag.Uint64("seeds", 8, "rotate seeds 0..seeds-1 (1 = repeat one request, converging to cache hits)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	flag.Parse()

	if *qps <= 0 {
		fatal(fmt.Errorf("-qps must be positive, got %v", *qps))
	}
	if *seeds == 0 {
		*seeds = 1
	}
	names := strings.Split(*graphs, ",")
	if *graphs == "" {
		var err error
		names, err = listGraphs(*addr, *timeout)
		if err != nil {
			fatal(err)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no graphs to request: the daemon corpus is empty and -graphs is unset"))
	}

	reg := telemetry.NewRegistry()
	lat := reg.Histogram("symload_request_seconds", "Client-observed /solve latency.", latencyBuckets())
	client := &http.Client{Timeout: *timeout}

	results := make(chan outcome, 1024)
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / *qps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(*duration)

	var launched int
	var dropped int
launch:
	for {
		select {
		case <-stop:
			break launch
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
			default:
				// Open loop at capacity: count the drop rather than stall
				// the schedule.
				dropped++
				continue
			}
			i := launched
			launched++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				body := fmt.Sprintf(`{"graph":%q,"problem":%q,"algo":%q,"seed":%d}`,
					names[i%len(names)], *problem, *algo, uint64(i)%*seeds)
				start := time.Now()
				status, id, err := postSolve(client, *addr, body)
				dur := time.Since(start)
				lat.Observe(dur.Seconds())
				results <- outcome{status, err, id, dur}
			}()
		}
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	codes := map[int]int{}
	var netErrs int
	var done []outcome
	for r := range results {
		if r.err != nil {
			netErrs++
			continue
		}
		codes[r.status]++
		if r.id != "" {
			done = append(done, r)
		}
	}

	fmt.Printf("requests:   %d launched, %d dropped (concurrency cap), %d transport errors\n",
		launched, dropped, netErrs)
	var keys []int
	for c := range codes {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	for _, c := range keys {
		fmt.Printf("status %d: %d\n", c, codes[c])
	}
	if lat.Count() > 0 {
		fmt.Printf("latency:    p50=%s p95=%s p99=%s (n=%d)\n",
			fmtSeconds(lat.Quantile(0.5)), fmtSeconds(lat.Quantile(0.95)),
			fmtSeconds(lat.Quantile(0.99)), lat.Count())
	}
	printSlowest(done, *addr)

	bad := netErrs
	for c, n := range codes {
		if c != http.StatusOK && c != http.StatusTooManyRequests && c != http.StatusServiceUnavailable {
			bad += n
		}
	}
	if bad > 0 {
		fatal(fmt.Errorf("%d requests failed with unexpected statuses", bad))
	}
}

// slowestShown caps the p99-tail listing so a long run stays readable.
const slowestShown = 8

// printSlowest names the requests at or above the exact p99 of the
// collected latencies, slowest first, so a tail worth explaining can be
// pulled straight from the daemon flight recorder by id.
func printSlowest(done []outcome, addr string) {
	if len(done) == 0 {
		return
	}
	slices.SortFunc(done, func(a, b outcome) int {
		if a.dur != b.dur {
			return cmp.Compare(b.dur, a.dur)
		}
		return strings.Compare(a.id, b.id)
	})
	n := (len(done) + 99) / 100 // ceil(1%): the p99-and-worse tail
	if n > slowestShown {
		n = slowestShown
	}
	fmt.Printf("slowest:    %d of %d requests at p99+ — GET %s/debug/requests/<id> for phases and spans\n",
		n, len(done), addr)
	for _, r := range done[:n] {
		fmt.Printf("  %s  %v  status %d\n", r.id, r.dur.Round(10*time.Microsecond), r.status)
	}
}

// listGraphs asks the daemon for its corpus.
func listGraphs(addr string, timeout time.Duration) ([]string, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(addr + "/graphs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /graphs: status %d", resp.StatusCode)
	}
	var gr struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return nil, fmt.Errorf("GET /graphs: %w", err)
	}
	names := make([]string, len(gr.Graphs))
	for i, g := range gr.Graphs {
		names[i] = g.Name
	}
	return names, nil
}

func postSolve(client *http.Client, addr, body string) (status int, id string, err error) {
	resp, err := client.Post(addr+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	return resp.StatusCode, resp.Header.Get("X-Symbreak-Request-Id"), nil
}

// latencyBuckets spans 100µs to ~100s logarithmically, fine enough that
// interpolated p99s are meaningful for both cache hits and cold solves.
func latencyBuckets() []float64 {
	var b []float64
	for v := 1e-4; v < 120; v *= math.Sqrt2 {
		b = append(b, v)
	}
	return b
}

func fmtSeconds(s float64) string {
	if math.IsNaN(s) {
		return "n/a"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symload:", err)
	os.Exit(1)
}

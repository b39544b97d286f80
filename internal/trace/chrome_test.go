package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chromeFixture is a hand-built two-experiment forest with fixed
// timestamps, exercising nesting, counters, series, and the pre-StartNs
// fallback layout.
func chromeFixture() []Export {
	const epoch = 1_700_000_000_000_000_000 // fixed Unix ns
	return []Export{
		{
			Name: "table1", StartNs: epoch, DurNs: 2_000_000,
			Children: []Export{
				{
					Name: "cell lp1/MM/RAND/CPU", StartNs: epoch, DurNs: 2_000_000,
					Counters: map[string]int64{"rounds": 24},
					Children: []Export{
						{Name: "decomp", StartNs: epoch, DurNs: 700_000,
							Counters: map[string]int64{"parts": 10}},
						{Name: "solve", StartNs: epoch + 700_000, DurNs: 1_300_000,
							Series: map[string][]int64{"frontier": {100, 40, 10, 0}}},
					},
				},
			},
		},
		{
			// No StartNs anywhere: children lay out sequentially.
			Name: "fig2", DurNs: 300_000,
			Children: []Export{
				{Name: "a", DurNs: 100_000},
				{Name: "b", DurNs: 200_000},
			},
		},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, chromeFixture()...); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace differs from golden:\n--- got ---\n%s--- want ---\n%s",
			buf.Bytes(), want)
	}
}

// TestChromeTraceSchema validates the fields Perfetto/chrome://tracing
// require: every event has ph and pid/tid, duration events carry ts and
// dur, and the file parses as the JSON Object format with a traceEvents
// array.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, chromeFixture()...); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no traceEvents emitted")
	}
	var sawX, sawC, sawM bool
	for i, ev := range file.TraceEvents {
		for _, req := range []string{"ph", "pid", "tid", "name"} {
			if _, ok := ev[req]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, req, ev)
			}
		}
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatal(err)
		}
		switch ph {
		case "X":
			sawX = true
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event %d missing ts: %v", i, ev)
			}
			var dur float64
			if err := json.Unmarshal(ev["dur"], &dur); err != nil {
				t.Fatalf("complete event %d: dur missing or invalid: %v", i, ev)
			}
			if dur < 0 {
				t.Fatalf("complete event %d has negative dur: %v", i, ev)
			}
		case "C":
			sawC = true
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("counter event %d missing ts: %v", i, ev)
			}
			if _, ok := ev["args"]; !ok {
				t.Fatalf("counter event %d missing args: %v", i, ev)
			}
		case "M":
			sawM = true
		default:
			t.Fatalf("unexpected phase %q in event %d", ph, i)
		}
	}
	if !sawX || !sawC || !sawM {
		t.Fatalf("event mix incomplete: X=%v C=%v M=%v", sawX, sawC, sawM)
	}
}

// TestChromeTraceFromLiveSpans round-trips a recorded tree (real
// timestamps) through the exporter and checks that children inherit the
// epoch normalization: all ts ≥ 0 and nested ts within the parent window.
func TestChromeTraceFromLiveSpans(t *testing.T) {
	c := NewCollector()
	outer := c.Root().Begin("outer")
	inner := outer.Begin("inner")
	inner.Append("frontier", 7)
	inner.End()
	outer.End()

	snap := c.Snapshot()
	var buf bytes.Buffer
	if err := ExportChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var outerEv, innerEv *chromeEvent
	for i := range file.TraceEvents {
		switch file.TraceEvents[i].Name {
		case "outer":
			outerEv = &file.TraceEvents[i]
		case "inner":
			innerEv = &file.TraceEvents[i]
		}
	}
	if outerEv == nil || innerEv == nil {
		t.Fatalf("missing span events: %s", buf.String())
	}
	if outerEv.Ts < 0 || innerEv.Ts < outerEv.Ts {
		t.Fatalf("timestamps not normalized: outer=%v inner=%v", outerEv.Ts, innerEv.Ts)
	}
	if innerEv.Ts+innerEv.Dur > outerEv.Ts+outerEv.Dur+1 { // +1µs slack
		t.Fatalf("inner extends past outer: inner=[%v,%v] outer=[%v,%v]",
			innerEv.Ts, innerEv.Ts+innerEv.Dur, outerEv.Ts, outerEv.Ts+outerEv.Dur)
	}
}

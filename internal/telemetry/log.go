package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// RequestLog emits one structured line per served request — the
// post-hoc analysis channel next to the aggregate /metrics exposition:
// where a histogram says p99 moved, the request log says which request
// id moved it, with its cache disposition, queue wait and per-phase
// durations attached. Lines go to one writer (the daemon uses stderr)
// in either of two formats:
//
//	text   ts=2026-08-09T10:00:00Z id=ab12… status=200 wall=4.1ms …
//	json   {"ts":"2026-08-09T10:00:00Z","id":"ab12…","status":200,…}
//
// Field order is the caller's argument order in both formats, so lines
// are deterministic and diffable. Writes are serialized; a line is
// emitted with a single Write so concurrent requests never interleave
// mid-line.
//
// A log is off by being absent: callers hold a nil *RequestLog when no
// lines are wanted and skip Emit, as a nil trace span is tracing off.
type RequestLog struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
}

// NewRequestLog returns a logger writing format ("text" or "json"; ""
// means text) to w.
func NewRequestLog(w io.Writer, format string) (*RequestLog, error) {
	switch format {
	case "", "text":
		return &RequestLog{w: w}, nil
	case "json":
		return &RequestLog{w: w, json: true}, nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
}

// Emit writes one log line from alternating key/value pairs, preserving
// their order. Values marshal naturally: strings quote in json mode,
// time.Time renders RFC 3339, time.Duration renders in json mode as
// integer nanoseconds (machine-summable) and in text mode as its
// human form. A trailing key without a value is dropped.
func (l *RequestLog) Emit(kv ...any) {
	var b []byte
	if l.json {
		b = append(b, '{')
		for i := 0; i+1 < len(kv); i += 2 {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, fmt.Sprint(kv[i]))
			b = append(b, ':')
			b = appendJSONValue(b, kv[i+1])
		}
		b = append(b, '}', '\n')
	} else {
		for i := 0; i+1 < len(kv); i += 2 {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, fmt.Sprint(kv[i])...)
			b = append(b, '=')
			b = appendTextValue(b, kv[i+1])
		}
		b = append(b, '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(b) //nolint:errcheck // logging is best-effort
}

// appendJSONValue appends v as a JSON value.
func appendJSONValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case time.Duration:
		return strconv.AppendInt(b, v.Nanoseconds(), 10)
	case time.Time:
		return strconv.AppendQuote(b, v.UTC().Format(time.RFC3339Nano))
	}
	j, err := json.Marshal(v)
	if err != nil {
		return strconv.AppendQuote(b, fmt.Sprint(v))
	}
	return append(b, j...)
}

// appendTextValue appends v in logfmt style, quoting strings that would
// break the k=v token stream.
func appendTextValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case time.Time:
		return append(b, v.UTC().Format(time.RFC3339Nano)...)
	case string:
		for _, ch := range v {
			if ch == ' ' || ch == '"' || ch == '=' {
				return strconv.AppendQuote(b, v)
			}
		}
		return append(b, v...)
	}
	return append(b, fmt.Sprint(v)...)
}

package repro

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// Docs-consistency gate: docs/OPS.md and docs/API.md are operator-facing
// documentation for cmd/symbreak, cmd/symload and the serving layer, and
// they drift silently unless machine-checked. These tests cross-check the
// documented flags, endpoints, metrics and headers against the source
// that implements them, in both directions where the doc claims to be
// exhaustive.

func mustRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return string(b)
}

var flagDeclRe = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\("([^"]+)"`)

// declaredFlags extracts the flag names a command defines.
func declaredFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	src := mustRead(t, path)
	flags := map[string]bool{}
	for _, m := range flagDeclRe.FindAllStringSubmatch(src, -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("no flag declarations found in %s", path)
	}
	return flags
}

// TestOpsFlagsExist checks every `-flag` token the docs mention against
// the flag declarations of the serving commands, and — for the two
// commands the OPS guide documents exhaustively — that every declared
// flag is documented.
func TestOpsFlagsExist(t *testing.T) {
	symbreak := declaredFlags(t, "cmd/symbreak/main.go")
	symload := declaredFlags(t, "cmd/symload/main.go")
	docs := mustRead(t, "docs/OPS.md") + mustRead(t, "docs/API.md")

	// Doc → source: every inline-code `-flag` must be a real flag.
	tokRe := regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	seen := map[string]bool{}
	for _, m := range tokRe.FindAllStringSubmatch(docs, -1) {
		name := m[1]
		seen[name] = true
		if !symbreak[name] && !symload[name] {
			t.Errorf("docs mention flag -%s, which neither symbreak nor symload declares", name)
		}
	}

	// Source → doc: the OPS flag reference claims completeness for both
	// commands, so an undocumented flag is a doc bug.
	for name := range symbreak {
		if !seen[name] {
			t.Errorf("cmd/symbreak flag -%s is not documented in docs/OPS.md", name)
		}
	}
	for name := range symload {
		if !seen[name] {
			t.Errorf("cmd/symload flag -%s is not documented in docs/OPS.md", name)
		}
	}
}

// TestOpsMetricsExist checks the symbreak_serve_* metric vocabulary both
// ways: every registered metric is documented, every documented metric
// token matches a registration.
func TestOpsMetricsExist(t *testing.T) {
	src := mustRead(t, "internal/serve/server.go")
	ops := mustRead(t, "docs/OPS.md")

	nameRe := regexp.MustCompile(`"(symbreak_serve_[a-z_]+)"`)
	registered := map[string]bool{}
	for _, m := range nameRe.FindAllStringSubmatch(src, -1) {
		registered[m[1]] = true
	}
	if len(registered) < 10 {
		t.Fatalf("suspiciously few serve metrics registered: %d", len(registered))
	}
	for name := range registered {
		if !strings.Contains(ops, name) {
			t.Errorf("metric %s is registered but not documented in docs/OPS.md", name)
		}
	}

	// Doc → source. Tokens may be prefixes (shell-grep examples like
	// symbreak_serve_cache_), so substring-match against the source.
	tokRe := regexp.MustCompile(`symbreak_serve_[a-z_]+`)
	for _, tok := range tokRe.FindAllString(ops, -1) {
		if !strings.Contains(src, tok) {
			t.Errorf("docs/OPS.md mentions %s, which matches no registered metric", tok)
		}
	}
}

// TestOpsGraphMetricsExist checks the graph-load metric table against
// internal/graph/scsr.go: every symbreak_graph_* name both ways, and every
// label name and label value a row lists must be a quoted literal there.
func TestOpsGraphMetricsExist(t *testing.T) {
	src := mustRead(t, "internal/graph/scsr.go")
	ops := mustRead(t, "docs/OPS.md")

	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`"(symbreak_graph_[a-z_]+)"`).FindAllStringSubmatch(src, -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatal("no symbreak_graph_* metrics found in internal/graph/scsr.go")
	}
	for name := range registered {
		if !strings.Contains(ops, name) {
			t.Errorf("metric %s is registered but not documented in docs/OPS.md", name)
		}
	}
	for _, tok := range regexp.MustCompile(`symbreak_graph_[a-z_]+`).FindAllString(ops, -1) {
		if !registered[tok] {
			t.Errorf("docs/OPS.md mentions %s, which internal/graph/scsr.go does not register", tok)
		}
	}

	rowRe := regexp.MustCompile("(?m)^\\| `(symbreak_graph_[a-z_]+)` \\| ([^|]*) \\| (.*) \\|$")
	valRe := regexp.MustCompile("`([^`]+)`")
	rows := rowRe.FindAllStringSubmatch(ops, -1)
	if len(rows) != len(registered) {
		t.Errorf("docs/OPS.md has %d graph-metric rows, want one per registered metric (%d)", len(rows), len(registered))
	}
	for _, row := range rows {
		name, labels, meaning := row[1], strings.TrimSpace(row[2]), row[3]
		if labels == "—" {
			continue
		}
		for _, l := range strings.Split(labels, ",") {
			if l = strings.TrimSpace(l); !strings.Contains(src, `"`+l+`"`) {
				t.Errorf("docs/OPS.md gives %s the label %q, which internal/graph/scsr.go never declares", name, l)
			}
		}
		for _, v := range valRe.FindAllStringSubmatch(meaning, -1) {
			if !strings.Contains(src, `"`+v[1]+`"`) {
				t.Errorf("docs/OPS.md lists %s value %q, which internal/graph/scsr.go never emits", name, v[1])
			}
		}
	}
}

// TestDocEndpointsExist checks that every endpoint path the docs name is
// actually registered by the serving or telemetry mux.
func TestDocEndpointsExist(t *testing.T) {
	src := mustRead(t, "internal/serve/server.go") + mustRead(t, "internal/telemetry/server.go")
	docs := mustRead(t, "docs/OPS.md") + mustRead(t, "docs/API.md")

	pathRe := regexp.MustCompile("`(/[a-z][a-z/]*/?)`")
	found := 0
	for _, m := range pathRe.FindAllStringSubmatch(docs, -1) {
		path := m[1]
		found++
		if !strings.Contains(src, `"`+path+`"`) {
			t.Errorf("docs name endpoint %s, which no mux registers", path)
		}
	}
	if found == 0 {
		t.Fatal("no endpoint paths found in docs — extraction broken?")
	}

	// Source → doc: every path the muxes register must be documented
	// (the observability surface is operator-facing by construction).
	docPaths := map[string]bool{}
	for _, m := range pathRe.FindAllStringSubmatch(docs, -1) {
		docPaths[m[1]] = true
	}
	regRe := regexp.MustCompile(`HandleFunc\("(/[^"]+)"`)
	for _, m := range regRe.FindAllStringSubmatch(src, -1) {
		path := m[1]
		if docPaths[path] || docPaths[strings.TrimSuffix(path, "/")] {
			continue
		}
		// A documented prefix route (trailing slash, like /debug/pprof/)
		// covers the endpoints registered under it.
		covered := false
		for doc := range docPaths {
			if strings.HasSuffix(doc, "/") && strings.HasPrefix(path, doc) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("mux registers %s, which the docs never mention", path)
		}
	}

	// The API reference must cover the solve surface and its contract
	// headers.
	api := mustRead(t, "docs/API.md")
	for _, want := range []string{
		"POST /solve", "GET /graphs", "GET /debug/requests",
		"X-Symbreak-Cache", "X-Symbreak-Request-Id",
		"format=chrome", "429", "503", "Retry-After",
	} {
		if !strings.Contains(api, want) {
			t.Errorf("docs/API.md does not mention %q", want)
		}
	}
	if !strings.Contains(mustRead(t, "internal/serve/solve.go"), "X-Symbreak-Cache") {
		t.Error("X-Symbreak-Cache header documented but not set by internal/serve")
	}
	if !strings.Contains(mustRead(t, "internal/serve/request.go"), "X-Symbreak-Request-Id") {
		t.Error("X-Symbreak-Request-Id header documented but not set by internal/serve")
	}
}

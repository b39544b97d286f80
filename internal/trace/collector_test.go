package trace

import (
	"fmt"
	"sync"
	"testing"
)

// TestCollectorIsolation is the per-request isolation contract: each
// collector records exactly the spans begun under its root, and one
// collector's spans never appear in another's snapshot.
func TestCollectorIsolation(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	outer := a.Root().Begin("outer")
	inner := outer.Begin("inner")
	inner.Add("work", 5)
	other := b.Root().Begin("other")
	other.Add("work", 7)
	inner.End()
	other.End()
	outer.End()

	snap := a.Snapshot()
	if len(snap.Children) != 1 || snap.Children[0].Name != "outer" {
		t.Fatalf("collector tree = %+v, want one 'outer' root", snap.Children)
	}
	o := snap.Children[0]
	if len(o.Children) != 1 || o.Children[0].Name != "inner" {
		t.Fatalf("outer children = %+v, want [inner]", o.Children)
	}
	if got := o.Children[0].Counter("work"); got != 5 {
		t.Fatalf("inner work counter = %d, want 5", got)
	}
	if snap.Find("other") != nil {
		t.Fatal("another collector's span leaked into this tree")
	}
	bs := b.Snapshot()
	if bs.Find("outer") != nil || bs.Find("inner") != nil {
		t.Fatalf("spans leaked into the other collector's tree: %+v", bs)
	}
	if len(bs.Children) != 1 || bs.Children[0].Counter("work") != 7 {
		t.Fatalf("other collector tree = %+v, want one 'other' span with work=7", bs.Children)
	}
}

// TestCollectorHammer is the concurrency acceptance check: many
// goroutines, each with its own collector, open nested spans and
// counters simultaneously; every collector must end up with exactly its
// own, properly nested tree — no interleaving across goroutines.
func TestCollectorHammer(t *testing.T) {
	const workers = 16
	const perWorker = 100
	cols := make([]*Collector, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cols[w] = NewCollector()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := cols[w].Root().Beginf("req %d-%d", w, i)
				phase := req.Begin("phase")
				phase.Add("n", 1)
				phase.Append("round", int64(i))
				phase.End()
				req.End()
			}
		}(w)
	}
	wg.Wait()

	for w, c := range cols {
		snap := c.Snapshot()
		if len(snap.Children) != perWorker {
			t.Fatalf("worker %d: %d top-level spans, want %d", w, len(snap.Children), perWorker)
		}
		for i, req := range snap.Children {
			if want := fmt.Sprintf("req %d-%d", w, i); req.Name != want {
				t.Fatalf("worker %d span %d named %q, want %q — trees interleaved", w, i, req.Name, want)
			}
			if len(req.Children) != 1 || req.Children[0].Name != "phase" {
				t.Fatalf("worker %d req %d children = %+v, want one 'phase'", w, i, req.Children)
			}
			ph := req.Children[0]
			if ph.Counter("n") != 1 || len(ph.Series["round"]) != 1 {
				t.Fatalf("worker %d req %d phase carries foreign data: %+v", w, i, ph)
			}
		}
	}
}

// TestChildrenNestAcrossGoroutines pins that a span nests under the span
// it was begun on, whichever goroutine begins it: children begun
// concurrently on two sibling spans each land under their own parent.
func TestChildrenNestAcrossGoroutines(t *testing.T) {
	c := NewCollector()
	a := c.Root().Begin("a")
	b := c.Root().Begin("b")
	const perParent = 50
	var wg sync.WaitGroup
	for _, parent := range []*Span{a, b, a, b} {
		wg.Add(1)
		go func(p *Span) {
			defer wg.Done()
			for i := 0; i < perParent; i++ {
				sp := p.Begin("child")
				sp.Begin("leaf").End()
				sp.End()
			}
		}(parent)
	}
	wg.Wait()
	a.End()
	b.End()

	snap := c.Snapshot()
	if len(snap.Children) != 2 {
		t.Fatalf("top level = %+v, want [a b]", snap.Children)
	}
	for _, top := range snap.Children {
		if len(top.Children) != 2*perParent {
			t.Fatalf("%s has %d children, want %d", top.Name, len(top.Children), 2*perParent)
		}
		for _, ch := range top.Children {
			if ch.Name != "child" || len(ch.Children) != 1 || ch.Children[0].Name != "leaf" {
				t.Fatalf("%s child = %+v, want 'child' holding one 'leaf'", top.Name, ch)
			}
		}
	}
}

// TestNilCollectorInert pins that a nil collector and its nil root are
// inert: the root is nil, spans begun on it are nil, and the snapshot is
// an empty tree.
func TestNilCollectorInert(t *testing.T) {
	var c *Collector
	root := c.Root()
	if root != nil {
		t.Fatal("nil collector returned a non-nil root")
	}
	sp := root.Beginf("request %d", 1)
	if sp != nil {
		t.Fatal("Beginf on the nil root returned a span")
	}
	sp.Begin("phase").End()
	root.Add("n", 1)
	root.Append("round", 1)
	if snap := c.Snapshot(); len(snap.Children) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil collector snapshot holds data: %+v", snap)
	}
}

// TestCollectorDisabledZeroAlloc extends the zero-cost contract to the
// per-request pattern: the nil-root path — the exact call pattern of an
// instrumented request with tracing off — must not allocate.
func TestCollectorDisabledZeroAlloc(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		root := c.Root()
		sp := root.Begin("request")
		sp.Add("bytes", 1)
		root.Add("n", 1)
		root.Append("round", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled collector tracing allocates %v per request, want 0", allocs)
	}
}

// TestCollectorReset pins that Reset empties a collector without
// touching others.
func TestCollectorReset(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.Root().Begin("keep").End()
	b.Root().Begin("drop").End()
	b.Reset()
	if got := len(b.Snapshot().Children); got != 0 {
		t.Fatalf("reset collector still holds %d spans", got)
	}
	if a.Snapshot().Find("keep") == nil {
		t.Fatal("reset of one collector emptied another")
	}
}

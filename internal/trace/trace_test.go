package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNesting(t *testing.T) {
	c := NewCollector()
	outer := c.Root().Begin("outer")
	inner := outer.Begin("inner")
	leaf := inner.Begin("leaf")
	leaf.Add("work", 3)
	leaf.End()
	inner.End()
	sibling := outer.Begin("sibling")
	sibling.End()
	outer.End()

	snap := c.Snapshot()
	if len(snap.Children) != 1 || snap.Children[0].Name != "outer" {
		t.Fatalf("want one top-level span 'outer', got %+v", snap.Children)
	}
	o := snap.Children[0]
	if len(o.Children) != 2 || o.Children[0].Name != "inner" || o.Children[1].Name != "sibling" {
		t.Fatalf("outer children = %+v, want [inner sibling]", o.Children)
	}
	in := o.Children[0]
	if len(in.Children) != 1 || in.Children[0].Name != "leaf" {
		t.Fatalf("inner children = %+v, want [leaf]", in.Children)
	}
	if got := in.Children[0].Counter("work"); got != 3 {
		t.Fatalf("leaf work counter = %d, want 3", got)
	}
	// Durations nest: a parent's time covers its children.
	if o.Dur() < in.Dur() || in.Dur() < in.Children[0].Dur() {
		t.Fatalf("durations do not nest: outer=%v inner=%v leaf=%v",
			o.Dur(), in.Dur(), in.Children[0].Dur())
	}
	if o.ChildSum() > o.Dur() {
		t.Fatalf("children sum %v exceeds parent %v", o.ChildSum(), o.Dur())
	}
}

// TestExplicitSpanCounters pins that counters and series land on exactly
// the span they are recorded on — a child's counters never reach its
// parent — and that counters recorded on the root sit on the root Export.
func TestExplicitSpanCounters(t *testing.T) {
	c := NewCollector()
	sp := c.Root().Begin("phase")
	child := sp.Begin("round")
	sp.Add("launches", 2)
	sp.Add("launches", 1)
	sp.Append("frontier", 10)
	sp.Append("frontier", 4)
	child.Add("launches", 5)
	child.End()
	sp.End()
	c.Root().Add("stray", 1)

	snap := c.Snapshot()
	p := snap.Find("phase")
	if p == nil {
		t.Fatal("span 'phase' missing from snapshot")
	}
	if got := p.Counter("launches"); got != 3 {
		t.Fatalf("launches = %d, want 3", got)
	}
	if got := p.Series["frontier"]; len(got) != 2 || got[0] != 10 || got[1] != 4 {
		t.Fatalf("frontier series = %v, want [10 4]", got)
	}
	if got := p.Find("round").Counter("launches"); got != 5 {
		t.Fatalf("child launches = %d, want 5", got)
	}
	if got := snap.Counter("stray"); got != 1 {
		t.Fatalf("root stray counter = %d, want 1", got)
	}
}

func TestDisabledNil(t *testing.T) {
	var sp *Span
	if sp.Begin("off") != nil {
		t.Fatal("Begin on a nil span must return nil")
	}
	if sp.Beginf("off-%d", 7) != nil {
		t.Fatal("Beginf on a nil span must return nil")
	}
	// Every operation must be inert on the nil span.
	sp.Add("c", 1)
	sp.Append("s", 1)
	sp.End()
	rep := Report{}
	rep.EndPhase(rep.Phase("solve"), 2)
	if rep.Rounds != 2 {
		t.Fatalf("untraced report counted %d rounds, want 2", rep.Rounds)
	}
}

// TestDisabledZeroAlloc pins the zero-cost-when-disabled contract: the
// full span/counter/series call pattern of an instrumented solver phase,
// and a Report with a nil Parent, must not allocate at all.
func TestDisabledZeroAlloc(t *testing.T) {
	var parent *Span
	allocs := testing.AllocsPerRun(1000, func() {
		parent.Beginf("core %d/%d", 1, 2).End() // core.Solve's pattern
		sp := parent.Begin("phase")
		sp.Add("matched", 1)
		sp.Append("frontier", 42)
		sp.Begin("round").End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v per span, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		rep := Report{Parent: parent}
		sp := rep.Decompose()
		rep.Decomposed(sp)
		sp = rep.Phase("solve/parts")
		rep.EndPhase(sp, 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v per report phase, want 0", allocs)
	}
}

// TestReportPhases pins the one-clock contract: the decomp span's wall
// time is Report.Decomp, the solve phase spans tile Report.Solve exactly
// (glue between phases lands in the next span), and their rounds
// counters sum to Report.Rounds.
func TestReportPhases(t *testing.T) {
	c := NewCollector()
	rep := Report{Strategy: "X", Parent: c.Root()}
	sp := rep.Decompose()
	time.Sleep(time.Millisecond)
	rep.Decomposed(sp)
	for i, rounds := range []int{2, 5} {
		time.Sleep(time.Millisecond) // glue before the phase
		sp = rep.Phase([]string{"solve/a", "solve/b"}[i])
		time.Sleep(time.Millisecond)
		rep.EndPhase(sp, rounds)
	}
	snap := c.Snapshot()
	if len(snap.Children) != 3 {
		t.Fatalf("want decomp + 2 phases, got %d spans", len(snap.Children))
	}
	d, a, b := snap.Children[0], snap.Children[1], snap.Children[2]
	if d.Name != "decomp" || d.Dur() != rep.Decomp || rep.Decomp < time.Millisecond {
		t.Errorf("decomp span %s %v, report Decomp %v", d.Name, d.Dur(), rep.Decomp)
	}
	if a.Dur()+b.Dur() != rep.Solve || rep.Solve < 4*time.Millisecond {
		t.Errorf("phases %v + %v, report Solve %v", a.Dur(), b.Dur(), rep.Solve)
	}
	if a.Counter("rounds")+b.Counter("rounds") != int64(rep.Rounds) || rep.Rounds != 7 {
		t.Errorf("rounds %d + %d, report %d", a.Counter("rounds"), b.Counter("rounds"), rep.Rounds)
	}
	if rep.Total() != rep.Decomp+rep.Solve {
		t.Errorf("Total %v", rep.Total())
	}
}

// TestConcurrentSpans exercises one tree from many goroutines at once —
// the -race safety check. The tracer must never race, deadlock, or lose
// spans or counters.
func TestConcurrentSpans(t *testing.T) {
	c := NewCollector()
	root := c.Root()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.Begin("span")
				sp.Add("n", 1)
				root.Add("global", 1)
				sp.Append("tick", int64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	var spans, n int64
	var walk func(e Export)
	walk = func(e Export) {
		if e.Name == "span" {
			spans++
			n += e.Counter("n")
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(snap)
	if spans != workers*perWorker {
		t.Fatalf("recorded %d spans, want %d", spans, workers*perWorker)
	}
	if n != workers*perWorker {
		t.Fatalf("per-span counters sum to %d, want %d", n, workers*perWorker)
	}
	if got := snap.Counter("global"); got != workers*perWorker {
		t.Fatalf("root counter = %d, want %d", got, workers*perWorker)
	}
}

// TestConcurrentSnapshotHammer runs writers (Begin/End/Add/Append via
// both Begin and Beginf) against concurrent readers calling Snapshot —
// the -race check that exposition (the /trace endpoint snapshots live
// trees) cannot tear the structures it copies.
func TestConcurrentSnapshotHammer(t *testing.T) {
	c := NewCollector()
	root := c.Root()
	const writers = 6
	const readers = 2
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.Beginf("w%d-span", w)
				sp.Add("n", 1)
				root.Add("global", 1)
				sp.Append("tick", int64(i))
				sp.End()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				snap := c.Snapshot()
				// The copy must be internally consistent enough to
				// walk and re-walk.
				_ = snap.ChildSum()
				_ = snap.Find("w0-span")
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	var n int64
	var walk func(e Export)
	walk = func(e Export) {
		n += e.Counter("n")
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(snap)
	if n != writers*perWorker {
		t.Fatalf("per-span counters sum to %d, want %d", n, writers*perWorker)
	}
}

func TestBeginfFormatsWhenEnabled(t *testing.T) {
	c := NewCollector()
	sp := c.Root().Beginf("cell %s/%d", "lp1", 7)
	sp.End()
	if snap := c.Snapshot(); snap.Find("cell lp1/7") == nil {
		t.Fatalf("Beginf did not format the span name: %+v", snap.Children)
	}
}

// TestOutOfOrderEnd pins that ending a parent before its child keeps
// both durations — the child's covers the later End — and that a later
// sibling nests under its own parent, not under the still-open child.
func TestOutOfOrderEnd(t *testing.T) {
	c := NewCollector()
	a := c.Root().Begin("a")
	b := a.Begin("b")
	a.End() // parent first: b stays open
	time.Sleep(time.Millisecond)
	b.End()
	after := c.Root().Begin("after")
	after.End()
	snap := c.Snapshot()
	if len(snap.Children) != 2 || snap.Children[1].Name != "after" {
		t.Fatalf("after out-of-order End, top-level = %+v, want [a after]", snap.Children)
	}
	ae := snap.Children[0]
	if len(ae.Children) != 1 || ae.Children[0].Name != "b" || len(ae.Children[0].Children) != 0 {
		t.Fatalf("a children = %+v, want [b] with no children", ae.Children)
	}
	if be := ae.Children[0]; be.Dur() < time.Millisecond || be.Dur() <= ae.Dur() {
		t.Fatalf("durations lost: a=%v b=%v, want b ≥ 1ms and longer than a", ae.Dur(), be.Dur())
	}
}

func TestResetDropsData(t *testing.T) {
	c := NewCollector()
	root := c.Root()
	root.Begin("kept").End()
	root.Add("stray", 1)
	c.Reset()
	if snap := c.Snapshot(); len(snap.Children) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("Reset left data behind: %+v", snap)
	}
	// The root handle survives Reset and records into the emptied tree.
	root.Begin("after").End()
	if c.Snapshot().Find("after") == nil {
		t.Fatal("root handle stopped recording after Reset")
	}
}

func TestSnapshotOfOpenSpan(t *testing.T) {
	c := NewCollector()
	sp := c.Root().Begin("open")
	time.Sleep(time.Millisecond)
	snap := c.Snapshot()
	sp.End()
	o := snap.Find("open")
	if o == nil || o.Dur() < time.Millisecond {
		t.Fatalf("open span should export elapsed-so-far time, got %+v", o)
	}
}

func TestExportJSONAndRender(t *testing.T) {
	col := NewCollector()
	cell := col.Root().Begin("cell lp1/MM/RAND/CPU")
	d := cell.Begin("decomp")
	d.Add("cross_edges", 120)
	d.End()
	s := cell.Begin("solve")
	s.Add("rounds", 9)
	s.Append("matched", 50)
	s.Append("matched", 80)
	s.End()
	cell.End()

	snap := col.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("exported JSON does not round-trip: %v", err)
	}
	if back.Find("decomp") == nil || back.Find("solve") == nil {
		t.Fatalf("round-tripped JSON lost spans: %s", buf.String())
	}
	if got := back.Find("solve").Counter("rounds"); got != 9 {
		t.Fatalf("rounds counter = %d after round-trip, want 9", got)
	}

	table := snap.Render()
	for _, want := range []string{"cell lp1/MM/RAND/CPU", "decomp", "cross_edges=120", "rounds=9", "matched[2 rounds, last=80]"} {
		if !strings.Contains(table, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, table)
		}
	}
}

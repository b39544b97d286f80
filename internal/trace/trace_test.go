package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTracing runs fn with collection on and a fresh tree, restoring the
// previous state after.
func withTracing(t *testing.T, fn func()) {
	t.Helper()
	was := Enabled()
	Enable(true)
	Reset()
	defer func() {
		Enable(was)
		Reset()
	}()
	fn()
}

func TestNesting(t *testing.T) {
	withTracing(t, func() {
		outer := Begin("outer")
		inner := Begin("inner")
		leaf := Begin("leaf")
		leaf.Add("work", 3)
		leaf.End()
		inner.End()
		sibling := Begin("sibling")
		sibling.End()
		outer.End()

		snap := Snapshot()
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
	})
}

func TestImplicitCurrentSpan(t *testing.T) {
	withTracing(t, func() {
		sp := Begin("phase")
		Add("launches", 2)
		Add("launches", 1)
		Append("frontier", 10)
		Append("frontier", 4)
		sp.End()
		// Counters after the span closed land on the root.
		Add("stray", 1)

		snap := Snapshot()
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
		if got := snap.Counter("stray"); got != 1 {
			t.Fatalf("root stray counter = %d, want 1", got)
		}
	})
}

func TestDisabledNil(t *testing.T) {
	Enable(false)
	Reset()
	sp := Begin("off")
	if sp != nil {
		t.Fatal("Begin must return nil when disabled")
	}
	// Every operation must be inert on the nil span and globals.
	sp.Add("c", 1)
	sp.Append("s", 1)
	sp.End()
	Add("c", 1)
	Append("s", 1)
	if sp2 := Beginf("off-%d", 7); sp2 != nil {
		t.Fatal("Beginf must return nil when disabled")
	}
	if snap := Snapshot(); len(snap.Children) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("disabled tracing recorded data: %+v", snap)
	}
}

// TestDisabledZeroAlloc pins the zero-cost-when-disabled contract: the
// full span/counter/series call pattern of an instrumented solver phase
// must not allocate at all while collection is off.
func TestDisabledZeroAlloc(t *testing.T) {
	Enable(false)
	Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Begin("phase")
		sp.Add("matched", 1)
		Add("launches", 1)
		Append("frontier", 42)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %v per span, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		var rep Report
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
	withTracing(t, func() {
		rep := Report{Strategy: "X"}
		sp := rep.Decompose()
		time.Sleep(time.Millisecond)
		rep.Decomposed(sp)
		for i, rounds := range []int{2, 5} {
			time.Sleep(time.Millisecond) // glue before the phase
			sp = rep.Phase([]string{"solve/a", "solve/b"}[i])
			time.Sleep(time.Millisecond)
			rep.EndPhase(sp, rounds)
		}
		snap := Snapshot()
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
	})
}

// TestConcurrentSpans exercises the tracer from many goroutines at once —
// the -race safety check. Nesting across goroutines is submission-order,
// but the tracer must never race, deadlock, or lose counters.
func TestConcurrentSpans(t *testing.T) {
	withTracing(t, func() {
		const workers = 8
		const perWorker = 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					sp := Begin("span")
					sp.Add("n", 1)
					Add("global", 1)
					Append("tick", int64(i))
					sp.End()
				}
			}(w)
		}
		wg.Wait()
		snap := Snapshot()
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
	})
}

// TestConcurrentSnapshotHammer runs writers (Begin/End/Add/Append via
// both Begin and Beginf) against concurrent readers calling Snapshot —
// the -race check that exposition (the /trace endpoint snapshots live
// trees) cannot tear the structures it copies.
func TestConcurrentSnapshotHammer(t *testing.T) {
	withTracing(t, func() {
		const writers = 6
		const readers = 2
		const perWorker = 300
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					sp := Beginf("w%d-span", w)
					sp.Add("n", 1)
					Add("global", 1)
					Append("tick", int64(i))
					sp.End()
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					snap := Snapshot()
					// The copy must be internally consistent enough to
					// walk and re-walk.
					_ = snap.ChildSum()
					_ = snap.Find("w0-span")
				}
			}()
		}
		wg.Wait()
		snap := Snapshot()
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
	})
}

func TestBeginfFormatsWhenEnabled(t *testing.T) {
	withTracing(t, func() {
		sp := Beginf("cell %s/%d", "lp1", 7)
		sp.End()
		if snap := Snapshot(); snap.Find("cell lp1/7") == nil {
			t.Fatalf("Beginf did not format the span name: %+v", snap.Children)
		}
	})
}

func TestOutOfOrderEnd(t *testing.T) {
	withTracing(t, func() {
		a := Begin("a")
		b := Begin("b")
		a.End() // parent first: b stays open but cur must recover
		b.End()
		after := Begin("after")
		after.End()
		snap := Snapshot()
		if len(snap.Children) != 2 || snap.Children[1].Name != "after" {
			t.Fatalf("after out-of-order End, top-level = %+v, want [a after]", snap.Children)
		}
	})
}

func TestResetDropsData(t *testing.T) {
	withTracing(t, func() {
		Begin("kept").End()
		Reset()
		if snap := Snapshot(); len(snap.Children) != 0 {
			t.Fatalf("Reset left spans behind: %+v", snap.Children)
		}
	})
}

func TestSnapshotOfOpenSpan(t *testing.T) {
	withTracing(t, func() {
		sp := Begin("open")
		time.Sleep(time.Millisecond)
		snap := Snapshot()
		sp.End()
		o := snap.Find("open")
		if o == nil || o.Dur() < time.Millisecond {
			t.Fatalf("open span should export elapsed-so-far time, got %+v", o)
		}
	})
}

func TestExportJSONAndRender(t *testing.T) {
	withTracing(t, func() {
		cell := Begin("cell lp1/MM/RAND/CPU")
		d := Begin("decomp")
		d.Add("cross_edges", 120)
		d.End()
		s := Begin("solve")
		s.Add("rounds", 9)
		s.Append("matched", 50)
		s.Append("matched", 80)
		s.End()
		cell.End()

		snap := Snapshot()
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
	})
}

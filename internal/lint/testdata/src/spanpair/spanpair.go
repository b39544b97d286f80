// Package spanpair exercises the spanpair analyzer: every span opened by
// (*trace.Span).Begin/Beginf must be ended in the opening function or
// escape to a new owner.
package spanpair

import "repro/internal/trace"

func discarded(parent *trace.Span) {
	parent.Begin("phase") // want `discarded`
}

func discardedBeginf(parent *trace.Span, n int) {
	parent.Beginf("phase %d", n) // want `discarded`
}

func blankAssigned(parent *trace.Span) {
	_ = parent.Begin("phase") // want `discarded`
}

func leaked(parent *trace.Span, n int) int {
	sp := parent.Begin("phase") // want `never ended`
	sp.Add("n", int64(n))
	return n
}

func leakedChild(parent *trace.Span) {
	sp := parent.Begin("phase")
	defer sp.End()
	child := sp.Begin("round") // want `never ended`
	child.Append("frontier", 1)
}

func deferred(parent *trace.Span) {
	sp := parent.Begin("phase")
	defer sp.End()
}

func plainEnd(parent *trace.Span) {
	sp := parent.Begin("phase")
	sp.Add("work", 1)
	sp.End()
}

func sequentialReuse(parent *trace.Span) {
	sp := parent.Begin("first")
	sp.End()
	sp = parent.Begin("second")
	sp.End()
}

func fromRoot(c *trace.Collector) {
	sp := c.Root().Begin("phase") // want `never ended`
	sp.Add("n", 1)
}

func returned(parent *trace.Span) *trace.Span {
	return parent.Begin("phase") // escapes: the caller owns it
}

func passedAlong(parent *trace.Span) {
	sp := parent.Begin("phase")
	finish(sp) // escapes: finish owns it
}

func finish(sp *trace.Span) { sp.End() }

func endedInClosure(parent *trace.Span) {
	sp := parent.Begin("phase")
	defer func() { sp.End() }()
}

// reportPhase opens its span through Report, which the analyzer does not
// match: Report's phase spans are closed by EndPhase.
func reportPhase(rep *trace.Report) {
	sp := rep.Phase("solve")
	rep.EndPhase(sp, 1)
}

func allowed(parent *trace.Span) {
	parent.Begin("phase") //lint:allow spanpair
}

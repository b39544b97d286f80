package trace

import "sync"

// Collector is one independent span tree: a root span that is never
// timed, and the mutex guarding every span of the tree.
type Collector struct {
	mu   sync.Mutex
	root *Span
}

// Default is the process tree: cmd/benchall -trace/-serve and
// cmd/symbreak -serve record into it, and the /trace endpoint serves it.
var Default = NewCollector()

// NewCollector returns an empty, independent collector.
func NewCollector() *Collector {
	c := &Collector{}
	c.root = &Span{name: "trace", c: c}
	return c
}

// Root returns the collector's root span, the parent of its top-level
// spans. A nil collector has a nil (inert) root.
func (c *Collector) Root() *Span {
	if c == nil {
		return nil
	}
	return c.root
}

// Reset discards every recorded span and counter; the root stays the
// same span, so handles to it keep recording into the emptied tree. Open
// spans become orphans: their End still stamps them, but they are no
// longer reachable from the tree.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root.children = nil
	c.root.counters = nil
	c.root.series = nil
}

// Snapshot deep-copies the collector's tree as the root Export. The
// root's children are the top-level spans; counters added to the root
// itself sit on the root Export. Its duration is the sum of its children
// (the root is never timed). A nil collector snapshots as an empty root.
func (c *Collector) Snapshot() Export {
	if c == nil {
		return Export{Name: "trace"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := export(c.root)
	e.DurNs = int64(e.ChildSum())
	return e
}

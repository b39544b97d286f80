// Package detctrl demonstrates the blind spot of detflow, and so why
// detrange and detrand stay beside it: here nondeterminism steers control
// flow, never a value. Map order decides which vertex receives which
// color, and a rand draw decides whether a color is written, yet every
// value stored is a constant or a counter. detflow follows values, so it
// reports nothing; detrange and detrand each report one finding.
// TestDetrangeDetrandCatchWhatDetflowMisses counts them.
package detctrl

import (
	"math/rand"

	"repro/internal/coloring"
)

// Number colors the keys of m in map order.
func Number(c *coloring.Coloring, m map[int32]bool) {
	next := int32(0)
	for v := range m {
		c.Color[v] = next
		next++
	}
}

// Flip colors vertex 0 on a coin toss.
func Flip(c *coloring.Coloring) {
	if rand.Intn(2) == 0 {
		c.Color[0] = 1
	}
}

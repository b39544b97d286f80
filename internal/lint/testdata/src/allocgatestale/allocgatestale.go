// Package allocgatestale pairs a hotpath allocation with a committed
// allocgate.baseline.json that allows more than the build reports: two
// allocations in kernel, which makes one, and one in gone, which no longer
// exists. Each is a stale allowance, reported at its function or, for a
// deleted function, at the package clause.
package allocgatestale // want "stale allowance in allocgate.baseline.json for gone"

//lint:hotpath
func kernel(n int) []int { // want "stale allowance in allocgate.baseline.json for kernel: .*allows 2, the build reports 1"
	return make([]int, n)
}

// Package allocgategeneric exercises allocgate's rule for generic hot
// paths: the compiler reports a generic body's escapes only in the
// packages that instantiate it, so //lint:hotpath on a function with type
// parameters, or on a method of a generic type, is itself a finding.
package allocgategeneric

//lint:hotpath
func filter[T any](src []T, keep func(T) bool) []T { // want `//lint:hotpath on generic filter`
	var out []T
	for _, v := range src {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

type stack[T any] struct{ items []T }

//lint:hotpath
func (s *stack[T]) push(v T) { // want `//lint:hotpath on generic push`
	s.items = append(s.items, v)
}

// A concrete hot path allocating nothing is clean.
//
//lint:hotpath
func sum(src []int32) int64 {
	var s int64
	for _, v := range src {
		s += int64(v)
	}
	return s
}

// Generic but unmarked: not a hot path, no finding.
func first[T any](src []T) T {
	return src[0]
}

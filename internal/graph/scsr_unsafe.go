package graph

// Word access to .scsr sections in place. Section starts are multiples of
// 8 within an 8-aligned file image (a page-aligned mapping, or the heap
// buffer alignedBytes returns), so on a little-endian host the on-disk
// words are the in-memory representation and a section is viewed, not
// copied.

import (
	"slices"
	"unsafe"
)

// hostLittleEndian reports whether the running host stores integers
// little-endian (true on every platform Go currently targets except a few
// big-endian ports; checked at startup with a two-byte probe).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedBytes returns n zeroed heap bytes backed by uint64 words, so a
// .scsr image read into them has 8-aligned sections.
func alignedBytes(n int64) []byte {
	if n == 0 {
		return nil
	}
	ws := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), n)
}

// words returns the little-endian words of the aligned section b as a []T
// that aliases b. A big-endian host, which never maps a file, first
// byte-swaps each word of its heap copy in place.
func words[T int32 | int64](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(T(0)))
	if !hostLittleEndian {
		for i := 0; i < len(b); i += size {
			slices.Reverse(b[i : i+size])
		}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/size)
}

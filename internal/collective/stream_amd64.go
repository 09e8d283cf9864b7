//go:build amd64 && !race

package collective

import "unsafe"

// streamCopy is copy(dst, src) for non-overlapping bytes nobody reads
// soon: the whole 64-byte lines from dst's first line boundary go to
// memory past the cache (stream_amd64.s); the unaligned head and the
// partial last line take copy.
func streamCopy(dst, src []byte) {
	n := min(len(dst), len(src))
	head := min(n, int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst)))&63))
	body := (n - head) &^ 63
	copy(dst, src[:head])
	if body > 0 {
		streamLines(&dst[head], &src[head], body/64)
	}
	copy(dst[head+body:n], src[head+body:n])
}

// streamLines copies lines 64-byte lines to the line-aligned dst with
// non-temporal stores, then fences them.
//
//go:noescape
func streamLines(dst, src *byte, lines int)

package collective

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestStreamCopyEqualsCopy holds deliver's large-block copy to copy: the
// same bytes land, and not one byte outside the destination changes. On
// amd64 without the race detector this is the non-temporal kernel, whose
// shape depends on the destination's alignment (the unaligned head), the
// length (the line count and the partial last line) and the source's
// alignment (its unaligned loads). The full product of every length
// 0…3·4096+127, destination offset 0…63 and source offset 0…15 would copy
// about 80 GB, so the sweep covers every pair of the three instead: every
// length at every destination offset, with the source offset (n+do) mod 16
// running through all sixteen per length and every offset pair recurring
// at about 780 lengths; the longest length, with the most lines, and the
// lengths either side of streamMin also run the whole offset product.
func TestStreamCopyEqualsCopy(t *testing.T) {
	const maxLen = 3*streamMin + 127
	rng := rand.New(rand.NewPCG(1, 50))
	src := make([]byte, 16+maxLen)
	for i := range src {
		src[i] = byte(rng.Uint32())
	}
	// Guard bytes on both sides: a line written past either end shows.
	const guard = 64
	poison := bytes.Repeat([]byte{0xA5}, 64+maxLen+guard)
	dst := bytes.Clone(poison)
	check := func(n, do, so int) {
		streamCopy(dst[do:do+n], src[so:so+n])
		if !bytes.Equal(dst[do:do+n], src[so:so+n]) || !bytes.Equal(dst[:do], poison[:do]) || !bytes.Equal(dst[do+n:do+n+guard], poison[:guard]) {
			want := bytes.Clone(poison)
			copy(want[do:do+n], src[so:so+n])
			i := 0
			for dst[i] == want[i] {
				i++
			}
			t.Fatalf("length %d, dst offset %d, src offset %d: byte %d is %#x, copy writes %#x", n, do, so, i-do, dst[i], want[i])
		}
		copy(dst[do:do+n], poison)
	}
	for n := 0; n <= maxLen; n++ {
		for do := 0; do < 64; do++ {
			check(n, do, (n+do)&15)
		}
	}
	for _, n := range []int{streamMin - 65, streamMin - 1, streamMin, streamMin + 1, streamMin + 63, maxLen} {
		for do := 0; do < 64; do++ {
			for so := 0; so < 16; so++ {
				check(n, do, so)
			}
		}
	}
}

// benchDeliver times one sweep of size-byte block copies over target,
// the result buffers of a whole pass, by copy or by streamCopy, at block
// sizes either side of deliver's streamMin rule. Sources cycle through 2 MiB of
// blocks, as snapshots from the pool do. Throughput is target bytes.
func benchDeliver(b *testing.B, target []byte) {
	src := make([]byte, 2<<20)
	for i := range src {
		src[i] = byte(i * 7)
	}
	clear(target) // a filtered run reaches here with the pages not yet faulted in
	for _, size := range []int{1 << 10, 4 << 10, 8 << 10, 64 << 10} {
		for _, way := range []struct {
			name string
			fn   func(dst, src []byte)
		}{
			{"copy", func(dst, src []byte) { copy(dst, src) }},
			{"stream", streamCopy},
		} {
			b.Run(fmt.Sprintf("deliver-%dKiB/%s", size>>10, way.name), func(b *testing.B) {
				n := len(target) / size * size
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					for pos, s := 0, 0; pos < n; pos, s = pos+size, (s+size)%len(src) {
						way.fn(target[pos:pos+size], src[s:s+size])
					}
				}
			})
		}
	}
}

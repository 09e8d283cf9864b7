// Package bitset provides a fixed-size bit set used for neighbor-set
// algebra in the communication-pattern builders: the paper's matrix A
// entries are intersections of outgoing-neighbor sets restricted to a
// contiguous rank range (a communicator half), which bit sets answer
// with word-wise AND and popcount.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set over [0, N).
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n.
func New(n int) *Set {
	n = max(n, 0)
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Rows returns count empty sets of capacity n that share one backing
// array: a table of rows is two allocations, not 2·count.
func Rows(count, n int) []Set {
	n = max(n, 0)
	w := (n + 63) / 64
	words := make([]uint64, count*w)
	rows := make([]Set, count)
	for i := range rows {
		rows[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return rows
}

// N returns the set's capacity.
func (s *Set) N() int { return s.n }

// Add inserts i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Has reports whether i is present. It panics if i is out of range.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Or sets s to the union s ∪ t. Both sets must have equal capacity.
func (s *Set) Or(t *Set) {
	s.match(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndCount returns |s ∩ t|. Both sets must have equal capacity.
func (s *Set) AndCount(t *Set) int {
	s.match(t)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// Masked returns the words of s covering [lo, hi), copied into dst with
// the bits outside the range cleared, and the first one's index: one
// side of a range-restricted intersection, hoisted out of a loop of
// AndCountWords. The range is clamped to [0, N).
func (s *Set) Masked(dst []uint64, lo, hi int) (first int, words []uint64) {
	lo, hi = max(lo, 0), min(hi, s.n)
	if lo >= hi {
		return 0, dst[:0]
	}
	first = lo >> 6
	words = append(dst[:0], s.words[first:(hi-1)>>6+1]...)
	words[0] &= ^uint64(0) << (uint(lo) & 63)
	words[len(words)-1] &= ^uint64(0) >> (uint(-hi) & 63)
	return first, words
}

// AndCountWords returns |s ∩ M| for M the words and first index Masked
// returned for a set of s's capacity. It inlines into the caller's loop.
func (s *Set) AndCountWords(first int, m []uint64) int {
	c, ws := 0, s.words[first:first+len(m)]
	for i, w := range m {
		c += bits.OnesCount64(w & ws[i])
	}
	return c
}

// Elems appends the elements of s in ascending order to dst and returns
// the extended slice.
func (s *Set) Elems(dst []int) []int {
	for i, w := range s.words {
		base := i << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, base+b)
			w &= w - 1
		}
	}
	return dst
}

func (s *Set) match(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}

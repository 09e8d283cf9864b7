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
	if n < 0 {
		n = 0
	}
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

// Count returns the number of elements present.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// Clear removes every element.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
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

// AndCountRange returns |s ∩ t ∩ [lo, hi)|: the number of common
// elements within the half-open range. Both sets must have equal
// capacity. Ranges outside [0, N) are clamped.
func (s *Set) AndCountRange(t *Set, lo, hi int) int {
	s.match(t)
	lo, hi = s.clamp(lo, hi)
	if lo >= hi {
		return 0
	}
	c := 0
	loW, hiW := lo>>6, (hi-1)>>6
	for i := loW; i <= hiW; i++ {
		w := s.words[i] & t.words[i] & rangeMask(i, lo, hi)
		c += bits.OnesCount64(w)
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

func (s *Set) clamp(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	return lo, hi
}

func (s *Set) match(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}

// rangeMask returns the mask of bits of word i that fall inside the
// global half-open range [lo, hi).
func rangeMask(i, lo, hi int) uint64 {
	m := ^uint64(0)
	base := i << 6
	if lo > base {
		m &= ^uint64(0) << (uint(lo-base) & 63)
	}
	if hi < base+64 {
		m &= ^uint64(0) >> (uint(base+64-hi) & 63)
	}
	return m
}

// Package determbad exercises the determinism analyzer.
package determbad

import (
	"math/rand"

	"nbrallgather/internal/mpirt"
)

// Bad collects every determinism violation class.
func Bad(p *mpirt.Proc, m map[int]int, tag int) []int {
	_ = rand.Intn(7) // want "global rand.Intn"

	for k := range m { // want "map iteration order reaches a runtime send/recv"
		p.Send(k, tag, 8, nil, nil)
	}

	var out []int
	for k := range m { // want "map iteration order reaches an append that outlives the loop"
		out = append(out, k)
	}
	return out
}

// Seeded shows the deterministic alternatives: a seeded generator and
// order-independent map use stay unflagged.
func Seeded(m map[int]int) []int {
	rng := rand.New(rand.NewSource(42))
	_ = rng.Intn(7)

	// Indexed writes keyed by the range key are order-independent.
	idx := make([]int, len(m))
	for k, v := range m {
		if k < len(idx) {
			idx[k] = v
		}
	}

	var keys []int
	for k := range m { //lint:ordered — normalised by the sort below
		keys = append(keys, k)
	}
	sortInts(keys)
	return keys
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

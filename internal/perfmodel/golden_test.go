package perfmodel

import (
	"math"
	"testing"
)

// TestGoldenSectionV pins the exact outputs of Eqs. (1)–(8) at the
// paper's Section V-A worked example (N=2000, S=2, L=20, α=1.4 µs,
// β=5 GB/s, δ=0.3) so model refactors cannot silently drift. The
// band assertions in TestSectionVWorkedExample tie these numbers to
// the paper's prose (≈23 DH vs 600 naive messages, modulo the paper's
// rounding); this test ties them to the implementation as printed —
// any intentional model change must update these constants and say
// why. Values were produced by this implementation and are asserted
// to 1e-12 relative tolerance (the computations are pure float64
// arithmetic, so they are bit-stable across platforms).
func TestGoldenSectionV(t *testing.T) {
	p := Params{N: 2000, S: 2, L: 20, Alpha: 1.4e-6, Beta: 5e9}
	const d = 0.3

	pin := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			if got != 0 {
				t.Errorf("%s = %.17g, want 0", name, got)
			}
			return
		}
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
			t.Errorf("%s = %.17g, want %.17g (drift %.2g)", name, got, want, rel)
		}
	}

	// Step count and the size-independent Eqs. (1)–(2).
	if steps := p.HalvingSteps(); steps != 8 {
		t.Errorf("HalvingSteps = %v, want ⌈log2(2000/20)⌉+1 = 8", steps)
	}
	pin("NOff (Eq. 1)", p.NOff(d), 8)
	pin("NIn (Eq. 2)", p.NIn(d), 19.192927860000001)

	// Size-dependent Eqs. (3)–(8) at three representative sizes.
	golden := []struct {
		m                                        int
		mIn, tRank, tNaive, tOff, tIn, tDH, spdp float64
	}{
		{8,
			46.063026864000001,     // MIn (Eq. 3)
			0.0016819199999999997,  // TRankNaive (Eq. 4)
			0.067276799999999984,   // TNaive (Eq. 5)
			1.20176e-05,            // TOffDH (Eq. 6)
			2.7046915874322802e-05, // TInDH (Eq. 7)
			0.0031251612699458244,  // TDH (Eq. 8)
			21.52746504540108},     // TNaive/TDH
		{1024,
			5896.0674385920001,
			0.0019257599999999999,
			0.077030399999999999,
			0.0001158528,
			4.950265840531825e-05,
			0.013228436672425462,
			5.8230917157859672},
		{1 << 20,
			6037573.0571182081,
			0.25333823999999999,
			10.133529599999999,
			0.1071756672,
			0.023202610925953885,
			10.430262250076312,
			0.97155079681010492},
	}
	for _, g := range golden {
		pin("MIn (Eq. 3)", p.MIn(d, g.m), g.mIn)
		pin("TRankNaive (Eq. 4)", p.TRankNaive(d, g.m), g.tRank)
		pin("TNaive (Eq. 5)", p.TNaive(d, g.m), g.tNaive)
		pin("TOffDH (Eq. 6)", p.TOffDH(d, g.m), g.tOff)
		pin("TInDH (Eq. 7)", p.TInDH(d, g.m), g.tIn)
		pin("TDH (Eq. 8)", p.TDH(d, g.m), g.tDH)
		pin("Speedup", p.Speedup(d, g.m), g.spdp)
	}

	// The headline message-count comparison: Distance Halving's
	// 8 + 19.19 ≈ 27 formula messages against the naive algorithm's
	// δ(n−L) = 600 (the paper's prose rounds the former to ≈23).
	pin("NOff", p.NOff(d), 8)
	pin("NIn", p.NIn(d), 19.192927860000001)
	pin("naive δ·n", d*float64(p.N), 600)
}

package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.N() != 130 {
		t.Fatalf("N = %d", s.N())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if el := s.Elems(nil); len(el) != 8 {
		t.Fatalf("Elems = %v, want 8 elements", el)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Has(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// reference is a map-based model for property testing.
type reference map[int]bool

func buildPair(n int, seed int64) (*Set, reference) {
	rng := rand.New(rand.NewSource(seed))
	s := New(n)
	ref := reference{}
	for i := 0; i < n/2; i++ {
		x := rng.Intn(n)
		s.Add(x)
		ref[x] = true
	}
	return s, ref
}

// TestRangeOpsAgainstModel: Masked then AndCountWords is |s ∩ t ∩ [lo, hi)|,
// for ranges that clamp, are empty, or start and end mid-word.
func TestRangeOpsAgainstModel(t *testing.T) {
	f := func(nSeed uint8, seed int64, loRaw, hiRaw uint16) bool {
		n := 1 + int(nSeed)%200
		s, ref := buildPair(n, seed)
		s2, ref2 := buildPair(n, seed^0x5a5a)
		lo := int(loRaw)%(n+40) - 20
		hi := int(hiRaw)%(n+40) - 20
		want := 0
		for x := range ref {
			if ref2[x] && x >= lo && x < hi {
				want++
			}
		}
		first, m := s.Masked(nil, lo, hi)
		return s2.AndCountWords(first, m) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAndCount(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	want := 0
	for i := 0; i < 100; i += 6 {
		want++
	}
	if got := a.AndCount(b); got != want {
		t.Fatalf("AndCount = %d, want %d", got, want)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).AndCount(New(11))
}

func TestElemsFullWord(t *testing.T) {
	s := New(64)
	for i := 0; i < 64; i++ {
		s.Add(i)
	}
	el := s.Elems(nil)
	if len(el) != 64 || el[0] != 0 || el[63] != 63 {
		t.Fatalf("Elems over full word wrong: %v", el)
	}
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if len(s.Elems(nil)) != 0 {
		t.Fatal("zero-capacity set misbehaves")
	}
	s2 := New(-5)
	if s2.N() != 0 {
		t.Fatal("negative capacity not clamped")
	}
}

// TestRowsIndependent: rows share one backing array, yet a bit set in
// one row — at either end of a word boundary — shows in no other.
func TestRowsIndependent(t *testing.T) {
	rows := Rows(3, 100)
	rows[0].Add(99)
	rows[1].Add(0)
	rows[2].Add(63)
	rows[2].Add(64)
	for i, want := range [][]int{{99}, {0}, {63, 64}} {
		if got := rows[i].Elems(nil); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
		if rows[i].N() != 100 {
			t.Fatalf("row %d capacity %d", i, rows[i].N())
		}
	}
	if len(Rows(0, 100)) != 0 || Rows(2, -1)[1].N() != 0 {
		t.Fatal("empty shapes")
	}
}

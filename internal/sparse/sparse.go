// Package sparse provides the compressed-sparse-row matrices behind the
// SpMM kernel of Section VII-C: a CSR type, a MatrixMarket reader for
// real SuiteSparse files, and synthetic generators that reproduce the
// order, nonzero count and structure family of each Table II matrix for
// offline runs (see DESIGN.md for the substitution rationale).
package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// CSR is an immutable sparse matrix in compressed-sparse-row form.
type CSR struct {
	Rows, Cols int
	// RowPtr has Rows+1 entries; row i's nonzeros occupy
	// ColIdx[RowPtr[i]:RowPtr[i+1]] in ascending column order.
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// Triplet is one coordinate-form entry.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets builds a CSR matrix, summing duplicate coordinates.
func FromTriplets(rows, cols int, ts []Triplet) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %d×%d", rows, cols)
	}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %d×%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := append([]Triplet(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Density returns NNZ / (Rows·Cols).
func (m *CSR) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// Row returns row i's column indices and values (shared storage; do
// not modify).
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the entry at (i, j); zero if absent. Intended for tests.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// MulDense computes dst = m × x for a dense x with k columns stored
// row-major (len(x) = Cols·k). dst must hold Rows·k values. It returns
// dst for chaining.
func (m *CSR) MulDense(x []float64, k int, dst []float64) []float64 {
	if len(x) != m.Cols*k {
		panic(fmt.Sprintf("sparse: x has %d values, want %d", len(x), m.Cols*k))
	}
	if len(dst) != m.Rows*k {
		panic(fmt.Sprintf("sparse: dst has %d values, want %d", len(dst), m.Rows*k))
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		out := dst[i*k : (i+1)*k]
		for e, j := range cols {
			v := vals[e]
			src := x[j*k : (j+1)*k]
			for c := range out {
				out[c] += v * src[c]
			}
		}
	}
	return dst
}

// RowBlock returns the sub-matrix of rows [lo, hi) with unchanged
// column space.
func (m *CSR) RowBlock(lo, hi int) *CSR {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("sparse: row block [%d,%d) outside %d rows", lo, hi, m.Rows))
	}
	b := &CSR{Rows: hi - lo, Cols: m.Cols, RowPtr: make([]int, hi-lo+1)}
	base := m.RowPtr[lo]
	for i := lo; i < hi; i++ {
		b.RowPtr[i-lo+1] = m.RowPtr[i+1] - base
	}
	b.ColIdx = m.ColIdx[base:m.RowPtr[hi]]
	b.Val = m.Val[base:m.RowPtr[hi]]
	return b
}

// ReadMatrixMarket parses a MatrixMarket coordinate file (real or
// pattern, general or symmetric). Pattern entries get value 1.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	pattern := header[3] == "pattern"
	symmetric := len(header) >= 5 && header[4] == "symmetric"

	// The size line is parsed field-by-field with Atoi rather than
	// fmt.Sscan: Sscan stops at the first non-digit, silently accepting
	// tokens like "12OO34" and leaving garbage unreported.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("sparse: bad size line %q", line)
		}
		var errs [3]error
		rows, errs[0] = strconv.Atoi(f[0])
		cols, errs[1] = strconv.Atoi(f[1])
		nnz, errs[2] = strconv.Atoi(f[2])
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sparse: bad size line %q: %v", line, err)
			}
		}
		break
	}
	// A corrupt header must not drive allocation: bound the dimensions
	// (FromTriplets allocates rows+1 row pointers) and cap the triplet
	// pre-allocation — the slice still grows to the real entry count.
	const maxDim = 1 << 27
	if rows < 0 || cols < 0 || nnz < 0 || rows > maxDim || cols > maxDim {
		return nil, fmt.Errorf("sparse: implausible size line %d %d %d", rows, cols, nnz)
	}
	ts := make([]Triplet, 0, min(nnz, 1<<16))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		v := 1.0
		if !pattern {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: entry line %q missing value", line)
			}
			v, err1 = strconv.ParseFloat(f[2], 64)
			if err1 != nil {
				return nil, fmt.Errorf("sparse: bad value in %q", line)
			}
		}
		ts = append(ts, Triplet{Row: i - 1, Col: j - 1, Val: v})
		if symmetric && i != j {
			ts = append(ts, Triplet{Row: j - 1, Col: i - 1, Val: v})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromTriplets(rows, cols, ts)
}

// Banded generates an n×n matrix with approximately nnz entries inside
// a symmetric band, the structure family of the Table II finite-element
// matrices. The half bandwidth is derived from the target density
// inside the band.
func Banded(n, nnz int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	// Choose half bandwidth so the band holds ~1.4× the off-diagonal
	// target: a ~70%-filled band mimics FEM fill patterns while
	// keeping rejection sampling fast.
	hbw := max(nnz-n, 0)*7/(10*n) + 1
	var ts []Triplet
	seen := map[[2]int]bool{}
	// Diagonal always present, as in SPD FEM matrices.
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, 4 + rng.Float64()})
		seen[[2]int{i, i}] = true
	}
	remaining := nnz - n
	capacity := n * 2 * hbw // off-diagonal band cells
	for remaining > 0 && len(seen) < capacity+n {
		i := rng.Intn(n)
		off := 1 + rng.Intn(hbw)
		j := i + off
		if rng.Intn(2) == 0 {
			j = i - off
		}
		if j < 0 || j >= n || seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		ts = append(ts, Triplet{i, j, -1 + rng.Float64()*0.5})
		remaining--
	}
	m, err := FromTriplets(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// Uniform generates an n×n matrix with approximately nnz uniformly
// placed entries, the structure family of the dense irregular Table II
// matrices (Journals, Heart1).
func Uniform(n, nnz int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var ts []Triplet
	seen := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, 4 + rng.Float64()})
		seen[[2]int{i, i}] = true
	}
	for len(ts) < nnz && len(seen) < n*n {
		i, j := rng.Intn(n), rng.Intn(n)
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		ts = append(ts, Triplet{i, j, rng.NormFloat64()})
	}
	m, err := FromTriplets(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// NamedMatrix pairs a Table II stand-in with its provenance.
type NamedMatrix struct {
	// Name is the SuiteSparse matrix it substitutes for.
	Name string
	// PaperRows and PaperNNZ are the Table II figures.
	PaperRows, PaperNNZ int
	// Structure is the generator family used.
	Structure string
	// M is the synthetic matrix.
	M *CSR
}

// TableII generates stand-ins for the seven SuiteSparse matrices of
// Table II: same order, same nonzero budget, matching structure family
// (banded for the finite-element matrices, uniform for the dense
// irregular ones).
func TableII(seed int64) []NamedMatrix {
	type spec struct {
		name      string
		n, nnz    int
		structure string
	}
	specs := []spec{
		{"dwt_193", 193, 1843, "banded"},
		{"Journals", 128, 6096, "uniform"},
		{"Heart1", 3600, 1387773, "uniform"},
		{"ash292", 292, 2208, "banded"},
		{"bcsstk13", 2003, 83883, "banded"},
		{"cegb2802", 2802, 277362, "banded"},
		{"comsol", 1500, 97645, "banded"},
	}
	out := make([]NamedMatrix, 0, len(specs))
	for i, s := range specs {
		var m *CSR
		switch s.structure {
		case "banded":
			m = Banded(s.n, s.nnz, seed+int64(i))
		default:
			m = Uniform(s.n, s.nnz, seed+int64(i))
		}
		out = append(out, NamedMatrix{
			Name: s.name, PaperRows: s.n, PaperNNZ: s.nnz,
			Structure: s.structure, M: m,
		})
	}
	return out
}

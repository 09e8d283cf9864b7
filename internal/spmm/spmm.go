// Package spmm implements the Section VII-C workload: a distributed
// sparse-matrix × dense-matrix multiplication kernel Z = X·Y in which X
// (n×n, sparse) is distributed block-row-wise, Y (n×k, dense) is
// distributed over the same row partition, and each rank gathers the Y
// blocks its X rows touch with a neighborhood allgather. The virtual
// topology derives from X's block sparsity: rank q is an incoming
// neighbor of rank p iff p's rows have a nonzero in q's column block.
package spmm

import (
	"encoding/binary"
	"fmt"
	"math"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/sparse"
	"nbrallgather/internal/vgraph"
)

// FlopRate is the modelled per-rank compute throughput used to charge
// multiply time to the virtual clock (a conservative per-core figure
// for the paper's Skylake nodes).
const FlopRate = 5e9

// Kernel binds a sparse matrix and a dense width to a rank count,
// holding the derived virtual topology and block partition.
type Kernel struct {
	X      *sparse.CSR
	K      int
	NRanks int
	// rowsPer is the uniform block height ⌈n/NRanks⌉; the last block
	// may be ragged but messages are padded to rowsPer rows so the
	// collective's uniform message size matches MPI semantics.
	rowsPer int
	g       *vgraph.Graph
}

// New builds the kernel and its communication graph. X must be square.
func New(x *sparse.CSR, k, nranks int) (*Kernel, error) {
	if x.Rows != x.Cols {
		return nil, fmt.Errorf("spmm: matrix must be square, got %d×%d", x.Rows, x.Cols)
	}
	if k < 1 {
		return nil, fmt.Errorf("spmm: dense width %d must be positive", k)
	}
	if nranks < 1 || nranks > x.Rows {
		return nil, fmt.Errorf("spmm: rank count %d outside 1..%d", nranks, x.Rows)
	}
	kr := &Kernel{X: x, K: k, NRanks: nranks}
	kr.rowsPer = (x.Rows + nranks - 1) / nranks
	out := make([][]int, nranks)
	for p := 0; p < nranks; p++ {
		lo, hi := kr.BlockRange(p)
		needs := map[int]bool{}
		for i := lo; i < hi; i++ {
			cols, _ := x.Row(i)
			for _, j := range cols {
				q := kr.OwnerOf(j)
				if q != p {
					needs[q] = true
				}
			}
		}
		for q := range needs {
			out[q] = append(out[q], p) // q must send its Y block to p
		}
	}
	g, err := vgraph.FromOutLists(nranks, out)
	if err != nil {
		return nil, err
	}
	kr.g = g
	return kr, nil
}

// Graph returns the derived virtual topology.
func (k *Kernel) Graph() *vgraph.Graph { return k.g }

// OwnerOf returns the rank owning matrix row j.
func (k *Kernel) OwnerOf(j int) int {
	return min(j/k.rowsPer, k.NRanks-1)
}

// BlockRange returns the half-open row interval owned by rank p.
func (k *Kernel) BlockRange(p int) (lo, hi int) {
	hi = min(p*k.rowsPer+k.rowsPer, k.X.Rows)
	lo = min(p*k.rowsPer, hi)
	return lo, hi
}

// MsgBytes returns the collective's uniform message size: one padded Y
// block of rowsPer×K float64s.
func (k *Kernel) MsgBytes() int { return k.rowsPer * k.K * 8 }

// YValue is the deterministic synthetic dense operand: Y[j][c].
func YValue(j, c int) float64 {
	return math.Sin(float64(j)*0.37+float64(c)*1.13) + 0.01*float64(c)
}

// LocalY materialises rank p's padded Y block, row-major.
func (k *Kernel) LocalY(p int) []float64 {
	lo, hi := k.BlockRange(p)
	y := make([]float64, k.rowsPer*k.K)
	for j := lo; j < hi; j++ {
		for c := 0; c < k.K; c++ {
			y[(j-lo)*k.K+c] = YValue(j, c)
		}
	}
	return y
}

// RunRank executes the kernel for the calling rank: gather the needed Y
// blocks with op, multiply the local X block, and return the local Z
// block (nil in phantom mode). Communication advances the virtual
// clock through the collective; the multiply charges 2·nnz·K flops.
func (k *Kernel) RunRank(p *mpirt.Proc, op interface {
	Run(p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte)
}) []float64 {
	r := p.Rank()
	m := k.MsgBytes()
	in := k.g.In(r)

	var sbuf, rbuf []byte
	if !p.Phantom() {
		sbuf = encodeFloats(k.LocalY(r))
		rbuf = make([]byte, len(in)*m)
	}
	op.Run(p, sbuf, m, rbuf)

	lo, hi := k.BlockRange(r)
	xb := k.X.RowBlock(lo, hi)
	p.AdvanceVT(2 * float64(xb.NNZ()) * float64(k.K) / FlopRate)
	if p.Phantom() {
		return nil
	}

	// Assemble the gathered Y rows: local block plus one decoded block
	// per incoming neighbor.
	blocks := map[int][]float64{r: k.LocalY(r)}
	for i, q := range in {
		blocks[q] = decodeFloats(rbuf[i*m : (i+1)*m])
	}
	z := make([]float64, (hi-lo)*k.K)
	for i := lo; i < hi; i++ {
		cols, vals := xb.Row(i - lo)
		out := z[(i-lo)*k.K : (i-lo+1)*k.K]
		for e, j := range cols {
			q := k.OwnerOf(j)
			blk, ok := blocks[q]
			if !ok {
				panic(fmt.Sprintf("spmm: rank %d needs Y block of %d but it was not gathered", r, q))
			}
			qlo, _ := k.BlockRange(q)
			row := blk[(j-qlo)*k.K : (j-qlo+1)*k.K]
			v := vals[e]
			for c := range out {
				out[c] += v * row[c]
			}
		}
	}
	return z
}

// Reference computes the full Z = X·Y serially for verification.
func (k *Kernel) Reference() []float64 {
	y := make([]float64, k.X.Cols*k.K)
	for j := 0; j < k.X.Cols; j++ {
		for c := 0; c < k.K; c++ {
			y[j*k.K+c] = YValue(j, c)
		}
	}
	return k.X.MulDense(y, k.K, make([]float64, k.X.Rows*k.K))
}

func encodeFloats(v []float64) []byte {
	b := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

func decodeFloats(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

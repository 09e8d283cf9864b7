// Package perfmodel implements the paper's Section V analytical
// performance model: Hockney-model predictions of naive and Distance
// Halving neighborhood allgather latency on Erdős–Rényi virtual
// topologies, parameterised by communicator size n, sockets per node S,
// ranks per socket L, graph density δ, and message size m.
//
// Equation numbering follows the paper:
//
//	(1) E[n_off]    expected off-socket messages per rank
//	(2) E[n_in]     expected intra-socket messages per rank
//	(3) E[m_in]     expected intra-socket message size
//	(4) E[t_r(naive)] per-rank naive communication time
//	(5) E[t(naive)]   total naive collective time
//	(6) E[t_off(DH)]  per-rank off-socket DH time
//	(7) E[t_in(DH)]   per-rank intra-socket DH time
//	(8) E[t(DH)]      total DH collective time
package perfmodel

import (
	"fmt"
	"math"
)

// Params holds the model inputs. Alpha and Beta are the Hockney
// constants of a representative (inter-node) link, as the paper obtains
// from ping-pong tests.
type Params struct {
	// N is the communicator size.
	N int
	// S is the number of sockets per node.
	S int
	// L is the number of ranks per socket.
	L int
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the bandwidth in bytes per second (the paper's β is
	// time-per-byte; we keep bytes-per-second and divide).
	Beta float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("perfmodel: N=%d must be positive", p.N)
	case p.S < 1:
		return fmt.Errorf("perfmodel: S=%d must be positive", p.S)
	case p.L < 1:
		return fmt.Errorf("perfmodel: L=%d must be positive", p.L)
	case p.Alpha < 0:
		return fmt.Errorf("perfmodel: Alpha must be non-negative")
	case p.Beta <= 0:
		return fmt.Errorf("perfmodel: Beta must be positive")
	}
	return nil
}

// HalvingSteps returns ⌈log2(n/L)⌉ + 1, the paper's step-count term.
func (p Params) HalvingSteps() float64 {
	if p.N <= p.L {
		return 0
	}
	return math.Ceil(math.Log2(float64(p.N)/float64(p.L))) + 1
}

// NOff is Eq. (1): the expected number of off-socket messages one rank
// sends, the smaller of the halving step count and the expected number
// of off-socket outgoing neighbors δ(n−L).
func (p Params) NOff(delta float64) float64 {
	return math.Min(p.HalvingSteps(), delta*float64(p.N-p.L))
}

// NIn is Eq. (2): the expected number of intra-socket messages one rank
// sends in the remainder phase.
func (p Params) NIn(delta float64) float64 {
	return (1 - math.Pow(1-delta, p.HalvingSteps()+1)) * float64(p.L)
}

// MIn is Eq. (3): the expected intra-socket message size for primary
// message size m bytes.
func (p Params) MIn(delta float64, m int) float64 {
	return delta * p.NIn(delta) * float64(m)
}

// hockney returns α + bytes/β.
func (p Params) hockney(bytes float64) float64 {
	return p.Alpha + bytes/p.Beta
}

// TRankNaive is Eq. (4): one rank's naive send+receive time.
func (p Params) TRankNaive(delta float64, m int) float64 {
	return 2 * delta * float64(p.N) * p.hockney(float64(m))
}

// TNaive is Eq. (5): the naive collective time with the node's S·L
// ranks serialized over its single port.
func (p Params) TNaive(delta float64, m int) float64 {
	return float64(p.S*p.L) * p.TRankNaive(delta, m)
}

// TOffDH is Eq. (6): one rank's off-socket (halving phase) time. The
// message doubles every step (worst case), so the bandwidth term is a
// geometric sum 2^(E[n_off]+1) − 1.
func (p Params) TOffDH(delta float64, m int) float64 {
	noff := p.NOff(delta)
	return float64(noff*p.Alpha) + (math.Pow(2, noff+1)-1)*float64(m)/p.Beta
}

// TInDH is Eq. (7): one rank's intra-socket (remainder phase) time.
func (p Params) TInDH(delta float64, m int) float64 {
	return p.NIn(delta) * p.hockney(p.MIn(delta, m))
}

// TDH is Eq. (8): the Distance Halving collective time, send and
// receive serialized over the node's ranks.
func (p Params) TDH(delta float64, m int) float64 {
	return 2 * float64(p.S*p.L) * (p.TOffDH(delta, m) + p.TInDH(delta, m))
}

// Speedup returns TNaive/TDH, the model's predicted gain.
func (p Params) Speedup(delta float64, m int) float64 {
	return p.TNaive(delta, m) / p.TDH(delta, m)
}

// NiagaraModel returns the model instantiated with the paper's cluster
// shape for the Fig. 2 study (n ranks over two-socket nodes, L ranks
// per socket) and ping-pong constants representative of EDR InfiniBand.
func NiagaraModel(n, l int) Params {
	return Params{N: n, S: 2, L: l, Alpha: 1.4e-6, Beta: 5e9}
}

// Fig2Point is one (density, message size) cell of the Fig. 2 surface.
type Fig2Point struct {
	Delta   float64
	Bytes   int
	TNaive  float64
	TDH     float64
	Speedup float64
}

// Fig2Series evaluates the model over the paper's Fig. 2 grid.
func Fig2Series(p Params, deltas []float64, sizes []int) []Fig2Point {
	pts := make([]Fig2Point, 0, len(deltas)*len(sizes))
	for _, d := range deltas {
		for _, m := range sizes {
			pts = append(pts, Fig2Point{
				Delta:   d,
				Bytes:   m,
				TNaive:  p.TNaive(d, m),
				TDH:     p.TDH(d, m),
				Speedup: p.Speedup(d, m),
			})
		}
	}
	return pts
}

// Package vgraph implements MPI virtual-topology graphs — the
// equivalent of MPI_Dist_graph_create_adjacent — plus the workload
// generators the paper evaluates on: Erdős–Rényi random sparse graphs
// (Section VII-A) and Moore neighborhoods on d-dimensional grids
// (Section VII-B). Graphs are directed: an edge u→v means v is an
// outgoing neighbor of u, i.e. u's message must reach v in a
// neighborhood allgather.
//
// A graph's memory is O(n + E): sorted out- and in-lists. It also keeps
// one n-bit row per rank, for word-wise intersections, only where the
// rows are no larger than the lists — n²/8 bytes ≤ 8·E, an average
// out-degree of at least n/64. Dense random graphs have rows; Moore and
// Cartesian grids at scale do not. That follows from the input alone.
package vgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"nbrallgather/internal/bitset"
)

// Graph is an immutable directed virtual topology over ranks [0, N).
type Graph struct {
	n   int
	out [][]int // sorted, deduplicated adjacency (outgoing neighbors)
	in  [][]int // sorted, deduplicated reverse adjacency
	// rows mirrors out as bit rows in one arena, for half-restricted
	// intersections during pattern construction; nil on a graph too
	// sparse to keep them (see the package doc).
	rows []bitset.Set
	// fp is the content fingerprint, computed once at construction so
	// plan-cache keying never re-canonicalises the adjacency.
	fp uint64
}

// FromOutLists builds a graph from per-rank outgoing-neighbor lists.
// It takes ownership of out: each list is sorted and deduplicated in
// place. Self-loops are rejected (MPI permits them, but a self edge in
// an allgather is a local copy and the paper's graphs exclude them).
func FromOutLists(n int, out [][]int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("vgraph: size %d must be positive", n)
	}
	if len(out) != n {
		return nil, fmt.Errorf("vgraph: got %d adjacency lists for %d ranks", len(out), n)
	}
	indeg := make([]int, n)
	e := 0
	for u, lst := range out {
		for _, v := range lst {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("vgraph: rank %d lists out-neighbor %d outside [0,%d)", u, v, n)
			}
			if v == u {
				return nil, fmt.Errorf("vgraph: rank %d lists itself as an out-neighbor", u)
			}
		}
		slices.Sort(lst)
		lst = slices.Compact(lst)
		out[u] = lst[:len(lst):len(lst)] // lists may share an arena: no append may reach the next
		for _, v := range lst {
			indeg[v]++
		}
		e += len(lst)
	}
	g := &Graph{n: n, out: out, in: make([][]int, n)}
	// The in-lists are capped slices of one arena, and sorted: u
	// ascends in the filling loop.
	arena := make([]int, e)
	for v, d := range indeg {
		g.in[v], arena = arena[:0:d], arena[d:]
	}
	for u, lst := range out {
		for _, v := range lst {
			g.in[v] = append(g.in[v], u)
		}
	}
	if n*n <= 64*e { // n²/8 bytes of rows ≤ 8·E bytes of lists
		g.rows = bitset.Rows(n, n)
		for u, lst := range out {
			for _, v := range lst {
				g.rows[u].Add(v)
			}
		}
	}
	g.fp = fingerprint(n, g.out)
	return g, nil
}

// FNV-1a over 64-bit words; collisions only cost a cache mislookup
// probability of ~2^-64 per key pair, acceptable for content addressing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fingerprint hashes the canonical adjacency (sorted, deduplicated —
// FromOutLists guarantees both), so isomorphic inputs presented in any
// list order fingerprint identically.
func fingerprint(n int, out [][]int) uint64 {
	h := (fnvOffset ^ uint64(n)) * fnvPrime
	for u, lst := range out {
		h = (h ^ uint64(uint(u)<<32|uint(len(lst)))) * fnvPrime
		for _, v := range lst {
			h = (h ^ uint64(v)) * fnvPrime
		}
	}
	return h
}

// Fingerprint returns the graph's content fingerprint: equal adjacency
// ⇒ equal fingerprint, regardless of how the graph was constructed.
// It is precomputed, so calling it is free — the canonicalisation the
// per-call plan builders used to repeat is hoisted here, once per
// graph.
func (g *Graph) Fingerprint() uint64 { return g.fp }

// N returns the number of ranks.
func (g *Graph) N() int { return g.n }

// Out returns rank r's outgoing neighbors in ascending order. The
// returned slice must not be modified.
func (g *Graph) Out(r int) []int { return g.out[r] }

// In returns rank r's incoming neighbors in ascending order. The
// returned slice must not be modified.
func (g *Graph) In(r int) []int { return g.in[r] }

// OutSet returns rank r's outgoing neighbors as a bit row, or nil on a
// graph too sparse to keep rows (see the package doc). The returned
// set must not be modified.
func (g *Graph) OutSet(r int) *bitset.Set {
	if g.rows == nil {
		return nil
	}
	return &g.rows[r]
}

// OutDegree returns len(Out(r)).
func (g *Graph) OutDegree(r int) int { return len(g.out[r]) }

// InDegree returns len(In(r)).
func (g *Graph) InDegree(r int) int { return len(g.in[r]) }

// HasEdge reports whether u→v is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if g.rows != nil {
		return g.rows[u].Has(v)
	}
	_, ok := slices.BinarySearch(g.out[u], v)
	return ok
}

// Edges returns the number of directed edges.
func (g *Graph) Edges() int {
	e := 0
	for _, l := range g.out {
		e += len(l)
	}
	return e
}

// Density returns |E| / (n·(n−1)), the empirical Erdős–Rényi δ.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(g.Edges()) / float64(g.n*(g.n-1))
}

// AvgOutDegree returns the mean outgoing degree.
func (g *Graph) AvgOutDegree() float64 {
	return float64(g.Edges()) / float64(g.n)
}

// IndexOfIn returns the position of source u within In(v), or -1. The
// position defines where u's payload lands in v's allgather receive
// buffer, matching MPI's ordering guarantee.
func (g *Graph) IndexOfIn(v, u int) int {
	lst := g.in[v]
	i := sort.SearchInts(lst, u)
	if i < len(lst) && lst[i] == u {
		return i
	}
	return -1
}

// IndexOfOut returns the position of destination v within Out(u), or
// -1. The position defines which segment of u's alltoall send buffer is
// addressed to v.
func (g *Graph) IndexOfOut(u, v int) int {
	lst := g.out[u]
	i := sort.SearchInts(lst, v)
	if i < len(lst) && lst[i] == v {
		return i
	}
	return -1
}

// Project returns the subgraph induced by keep — the survivor-projected
// virtual topology after fail-stop failures. keep lists the original
// ranks to retain, strictly ascending; they are renumbered densely in
// that order (keep[i] becomes rank i). Edges with either endpoint
// outside keep are dropped.
func (g *Graph) Project(keep []int) (*Graph, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("vgraph: Project with empty keep set")
	}
	newOf := make([]int, g.n)
	for i := range newOf {
		newOf[i] = -1
	}
	for i, r := range keep {
		if r < 0 || r >= g.n {
			return nil, fmt.Errorf("vgraph: Project keep rank %d outside [0,%d)", r, g.n)
		}
		if i > 0 && keep[i-1] >= r {
			return nil, fmt.Errorf("vgraph: Project keep ranks must be strictly ascending, got %d after %d", r, keep[i-1])
		}
		newOf[r] = i
	}
	out := make([][]int, len(keep))
	for i, r := range keep {
		for _, v := range g.out[r] {
			if newOf[v] >= 0 {
				out[i] = append(out[i], newOf[v])
			}
		}
	}
	return FromOutLists(len(keep), out)
}

// ErdosRenyi generates a directed G(n, δ) graph: every ordered pair
// (u, v), u ≠ v, is an edge independently with probability delta. The
// same seed yields the same graph, so all harness trials and both
// pattern builders see identical topologies.
func ErdosRenyi(n int, delta float64, seed int64) (*Graph, error) {
	if delta < 0 || delta > 1 {
		return nil, fmt.Errorf("vgraph: density %v outside [0,1]", delta)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if v != u && rng.Float64() < delta {
				out[u] = append(out[u], v)
			}
		}
	}
	return FromOutLists(n, out)
}

// Moore generates a Moore neighborhood on a periodic d-dimensional grid
// with the given per-dimension extents. Every rank is adjacent (both
// directions) to all ranks within Chebyshev distance r, giving
// (2r+1)^d − 1 neighbors per rank when every extent exceeds 2r. Ranks
// are laid out row-major, so consecutive ranks are grid neighbors along
// the last dimension — the placement the paper's runs use.
func Moore(dims []int, r int) (*Graph, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("vgraph: Moore needs at least one dimension")
	}
	if r < 1 {
		return nil, fmt.Errorf("vgraph: Moore radius %d must be positive", r)
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("vgraph: Moore dimension %d must be positive", d)
		}
		n *= d
	}
	// A dimension contributes its 2r+1 nearest coordinates, or its
	// whole extent when that is no more: the walk then visits each
	// neighbor once, and every rank has the same degree.
	span, deg := make([]int, len(dims)), 1
	for k, d := range dims {
		span[k] = min(2*r+1, d)
		deg *= span[k]
	}
	deg-- // the rank itself
	coord := make([]int, len(dims))
	out, arena := make([][]int, n), make([]int, n*deg)
	var u int
	var walk func(k, v int)
	walk = func(k, v int) {
		if k == len(dims) {
			if v != u {
				out[u] = append(out[u], v)
			}
			return
		}
		for i := 0; i < span[k]; i++ {
			c := i
			if span[k] < dims[k] {
				c = (coord[k] + i - r + dims[k]) % dims[k]
			}
			walk(k+1, v*dims[k]+c)
		}
	}
	for u = 0; u < n; u++ {
		unflatten(u, dims, coord)
		out[u], arena = arena[:0:deg], arena[deg:]
		walk(0, 0)
	}
	return FromOutLists(n, out)
}

// Cartesian generates the von Neumann neighborhood of an MPI_Cart
// communicator: each rank is adjacent (both directions) to the ranks
// ±1 along every dimension of the grid. With periodic wrap every rank
// has exactly 2·d neighbors (fewer on boundaries otherwise, and
// coincident neighbors merge on extent-1 or extent-2 dimensions).
func Cartesian(dims []int, periodic bool) (*Graph, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("vgraph: Cartesian needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("vgraph: Cartesian dimension %d must be positive", d)
		}
		n *= d
	}
	coord, deg := make([]int, len(dims)), 2*len(dims)
	out, arena := make([][]int, n), make([]int, n*deg)
	for u := 0; u < n; u++ {
		unflatten(u, dims, coord)
		out[u], arena = arena[:0:deg], arena[deg:]
		for k := range dims {
			for _, off := range [2]int{-1, 1} {
				c := coord[k] + off
				if c < 0 || c >= dims[k] {
					if !periodic {
						continue
					}
					c = (c + dims[k]) % dims[k]
				}
				old := coord[k]
				coord[k] = c
				v := flatten(coord, dims)
				coord[k] = old
				if v != u {
					out[u] = append(out[u], v)
				}
			}
		}
	}
	return FromOutLists(n, out)
}

func flatten(coord, dims []int) int {
	idx := 0
	for k := range dims {
		idx = idx*dims[k] + coord[k]
	}
	return idx
}

// MooreDims returns grid extents for n ranks in d dimensions, as equal
// as possible with each extent a factor of n (largest first). It
// returns an error if n has no such factorisation with every extent > 1
// unless n == 1.
func MooreDims(n, d int) ([]int, error) {
	if n < 1 || d < 1 {
		return nil, fmt.Errorf("vgraph: invalid Moore shape n=%d d=%d", n, d)
	}
	dims := make([]int, d)
	rem := n
	for i := 0; i < d; i++ {
		// Choose the divisor of rem closest to rem^(1/(d-i)).
		target := iroot(rem, d-i)
		best := 1
		for f := 1; f*f <= rem; f++ {
			if rem%f != 0 {
				continue
			}
			for _, c := range [2]int{f, rem / f} {
				if abs(c-target) < abs(best-target) {
					best = c
				}
			}
		}
		dims[i] = best
		rem /= best
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	prod := 1
	for _, x := range dims {
		prod *= x
	}
	if prod != n {
		return nil, fmt.Errorf("vgraph: cannot factor %d into %d dimensions", n, d)
	}
	return dims, nil
}

func unflatten(idx int, dims, coord []int) {
	for k := len(dims) - 1; k >= 0; k-- {
		coord[k] = idx % dims[k]
		idx /= dims[k]
	}
}

func iroot(n, k int) int {
	if k <= 1 {
		return n
	}
	r := 1
	for pow(r+1, k) <= n {
		r++
	}
	return r
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		if r > 1<<30/maxInt(b, 1) {
			return 1 << 30
		}
		r *= b
	}
	return r
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

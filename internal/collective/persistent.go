package collective

import (
	"fmt"

	"nbrallgather/internal/mpirt"
)

// Persistent is an MPI-4-style persistent neighborhood collective
// handle (the MPI_Neighbor_allgather_init / MPI_Start / MPI_Wait
// idiom the related-work persistent-collective designs build on):
// buffers, sizes and derived offsets bind once, then the collective
// restarts cheaply every iteration — the natural shape for the
// iterative stencil and solver loops that dominate neighborhood
// collective usage.
type Persistent struct {
	op     Op
	p      mpirt.Endpoint
	sbuf   []byte
	counts []int
	rbuf   []byte
	active bool
}

// AllgatherInit binds a persistent neighborhood allgather for the
// calling rank. The same buffers are reused by every Start; callers
// update sbuf in place between iterations, exactly as MPI persistent
// semantics prescribe.
func AllgatherInit(op Op, p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) (*Persistent, error) {
	if m < 1 {
		return nil, fmt.Errorf("collective: message size %d must be positive", m)
	}
	return &Persistent{
		op: op, p: p,
		sbuf: sbuf, counts: uniformFor(op, m), rbuf: rbuf,
	}, nil
}

// AllgathervInit binds a persistent neighborhood allgatherv. counts is
// captured by reference and must not change between Starts.
func AllgathervInit(op Op, p mpirt.Endpoint, sbuf []byte, counts []int, rbuf []byte) (*Persistent, error) {
	if len(counts) != op.Graph().N() {
		return nil, fmt.Errorf("collective: %d counts for %d ranks", len(counts), op.Graph().N())
	}
	return &Persistent{op: op, p: p, sbuf: sbuf, counts: counts, rbuf: rbuf}, nil
}

// Start launches one collective round. Like MPI_Start it must not be
// called while a round is in flight.
func (pr *Persistent) Start() {
	if pr.active {
		panic("collective: Start on an active persistent request")
	}
	pr.active = true
	// The eager simulation runtime completes the data movement within
	// the call; Start/Wait split is semantic, matching how a real
	// implementation would overlap the phases with computation.
	pr.op.RunV(pr.p, pr.sbuf, pr.counts, pr.rbuf)
}

// Wait completes the in-flight round.
func (pr *Persistent) Wait() {
	if !pr.active {
		panic("collective: Wait without a matching Start")
	}
	pr.active = false
}

// Run performs Start followed by Wait, the blocking convenience.
func (pr *Persistent) Run() {
	pr.Start()
	pr.Wait()
}

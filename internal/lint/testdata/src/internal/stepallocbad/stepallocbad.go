// Package stepallocbad exercises allocdiscipline at the event loop's
// Stepper.Step call: the //lint:allocok on that interface call reviews
// it as a dynamic boundary, so what an implementation allocates once per
// pass is not charged to the loop's root — while what it allocates per
// message is still caught, through the Step-form receive's own root.
package stepallocbad

import "nbrallgather/internal/mpirt"

type stepper interface {
	Step(p *mpirt.Proc) bool
}

// loop mimics the event loop: a hot root resuming ranks through an
// interface.
//
//lint:hotpath
func loop(ranks []stepper, p *mpirt.Proc) int {
	done := 0
	for _, s := range ranks {
		if s.Step(p) { //lint:allocok — fixture: the reviewed Step boundary
			done++
		}
	}
	return done
}

type rank struct {
	tag     int
	scratch []byte
	sizes   []int
}

// Step sets up once per pass — unreported: no root reaches it through
// the reviewed call — then receives.
func (r *rank) Step(p *mpirt.Proc) bool {
	if r.scratch == nil {
		r.scratch = make([]byte, 64)
	}
	for len(r.sizes) < 4 {
		if !recvStep(p, r) {
			return false
		}
	}
	return true
}

// recvStep stands in for the runtime's RecvStep: the per-message root.
//
//lint:hotpath
func recvStep(p *mpirt.Proc, r *rank) bool {
	m := p.Recv(0, r.tag)
	note(r, m.Size)
	return true
}

// note allocates per message.
func note(r *rank, size int) {
	r.sizes = append(r.sizes, size) // want "append may grow the backing array\) — reachable from //lint:hotpath via recvStep → note"
}

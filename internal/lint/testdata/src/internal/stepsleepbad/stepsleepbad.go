// Package stepsleepbad exercises enginesafe on a stepped rank body: the
// event loop calls an mpirt.Stepper's Step directly, so Step is engine
// code wherever it is declared — this package is no algorithm package —
// and a host block under it stalls every rank.
package stepsleepbad

import (
	"time"

	"nbrallgather/internal/mpirt"
)

type napper struct{ naps int }

// Step implements mpirt.Stepper.
func (n *napper) Step(p *mpirt.Proc) bool {
	time.Sleep(time.Millisecond) // want "host-blocking call to time.Sleep reachable from event-engine code via napper.Step"
	n.naps++
	return settle(n)
}

// settle hides a second block one call down.
func settle(n *napper) bool {
	time.Sleep(time.Microsecond) // want "host-blocking call to time.Sleep reachable from event-engine code via napper.Step → settle"
	return n.naps > 3
}

// Reset is host-side code of an ordinary package, free to block: only
// the Stepper method is a root here.
func (n *napper) Reset(d time.Duration) { time.Sleep(d) }

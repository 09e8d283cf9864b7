// Package tagbad exercises the tagdiscipline analyzer.
package tagbad

import (
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/tags"
)

// Literals collects the raw-tag violation classes.
func Literals(p *mpirt.Proc, t int) {
	p.Send(1, 42, 8, nil, nil)        // want "integer literal 42 in tag position"
	p.Recv(1, 100+t)                  // want "integer literal 100 in tag position"
	p.Recv(1, 7)                      // want "integer literal 7 in tag position"
	_ = p.Sub(&mpirt.Comm{}, 5<<13)   // want "integer literal 5 in tag position"
	_ = p.Probe(mpirt.AnySource, 303) // want "integer literal 303 in tag position"

	p.SendSnapshot(1, 43, 8, mpirt.Snapshot{}, nil, -1) // want "integer literal 43 in tag position"
}

// Computed shows a literal tag computed into a local variable first
// (audit row TG1): the variable is followed to every value it is given,
// by `:=`, `var` or an assignment later in the source.
func Computed(p *mpirt.Proc, step, phase int) {
	propTag := 10000 + step*4 + phase*2
	p.Send(1, propTag, 8, nil, nil) // want "integer literal 10000 in tag position .assigned to propTag"
	var retry int
	retry = tags.DHStep + step
	p.Recv(1, retry)
	var ackTag = 20000 + step
	p.Recv(1, ackTag) // want "integer literal 20000 in tag position .assigned to ackTag"
	next := tags.DHStep
	for i := 0; i < 2; i++ {
		p.Send(1, next, 8, nil, nil) // want "integer literal 30000 in tag position .assigned to next"
		next = 30000 + i
	}
}

// Registry shows the conforming patterns: registry constants, variable
// offsets, and opaque registry helpers stay unflagged.
func Registry(p *mpirt.Proc, t, epoch int) {
	p.Send(1, tags.Naive, 8, nil, nil)
	p.Recv(1, tags.DHStep+t)
	sub := p.Sub(&mpirt.Comm{}, tags.FTShift(epoch, 0))
	sub.Send(1, tags.Naive, 8, nil, nil)
}

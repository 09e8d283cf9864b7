// Package clean is the negative fixture: idiomatic runtime use that
// every analyzer must pass with zero findings.
package clean

import (
	"errors"
	"sort"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/tags"
)

// Exchange runs a conforming send/receive round: registry tags, sorted
// map iteration, handled errors.
func Exchange(p *mpirt.Proc, peers map[int]int) error {
	var keys []int
	for k := range peers { //lint:ordered — normalised by the sort below
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		p.Send(k, tags.Naive, peers[k], nil, nil)
	}
	for _, k := range keys {
		p.Recv(k, tags.Naive)
	}
	if err := p.SendErr(1, tags.DHStep, 8, nil, nil); err != nil {
		var rf *mpirt.RankFailedError
		if errors.As(err, &rf) {
			return err
		}
		return err
	}
	return nil
}

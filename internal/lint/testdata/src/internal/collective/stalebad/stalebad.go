// Package stalebad exercises the stale-suppression check: a directive
// that suppresses nothing across a full-suite run is review debt and
// must be flagged, while a directive that still fires stays.
package stalebad

import "time"

// Fresh carries a live suppression: vtclean would flag time.Now
// here, so the directive earns its keep.
func Fresh() int64 {
	return time.Now().UnixNano() //lint:wallclock — fixture: exercised suppression
}

// Stale carries a directive with nothing left to suppress.
func Stale() int { //lint:ordered — nothing here iterates a map
	return 0
}

package allocbad

// putter is called through from a hot root. Two types implement it:
// direct declares both methods itself, promoted gets put from an
// embedded struct whose own method set does not satisfy putter.
type putter interface {
	put(n int) []int
	size() int
}

type direct struct{ n int }

func (d *direct) put(n int) []int { return nil }

func (d *direct) size() int { return d.n }

// store's put is what promoted's put resolves to: the dispatch must
// reach it through promoted's method set.
type store struct{}

func (store) put(n int) []int {
	return make([]int, n) // want "allocation on hot path \(make\) — reachable from //lint:hotpath via HotPut → store.put"
}

type promoted struct {
	store
	n int
}

func (p *promoted) size() int { return p.n }

// HotPut dispatches put through the interface.
//
//lint:hotpath
func HotPut(q putter, n int) int {
	q.put(n)
	return q.size()
}

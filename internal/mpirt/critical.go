package mpirt

import "slices"

// Span is one stretch of Report.Path. A transit (Src ≥ 0) is message Tag
// of Size bytes from Src to Rank, leaving at From and arriving at To:
// Alpha and Wire are α and Size/β at its distance class, Queue the rest —
// port, NIC and uplink waits, degradation, injected delays — and Posted
// the receiver's clock when it posted the receive. Local time (Src < 0)
// is Rank's time from From to To — overheads, copies, detections, barrier
// waits, an unreceived send's port drain — tagged as the transit it leads
// up to, or at the end of the path as the one it follows.
type Span struct {
	Rank, Src, Tag, Size                 int
	From, To, Alpha, Wire, Queue, Posted float64
}

// lift advances the clock to m's arrival when that is later — the
// receive waited — and then, when the record is on, appends the wait as
// a transit whose split walk fills in. Every receive lifts here.
func (p *Proc) lift(m *Msg) {
	if m.arrival > p.vt {
		if p.edges != nil {
			p.edges = append(p.edges, Span{Rank: p.rank, Src: m.Src, Tag: m.Tag, Size: m.Size,
				From: m.depart, To: m.arrival, Posted: p.vt})
		}
		p.vt = m.arrival
	}
}

// walk returns the critical path that ends at end, in time order. It
// starts at the lowest rank whose clock or port drain is end, preferring
// one whose own contribution to a closing CollectiveTime was end, and
// goes back along a rank's time to its last waited receive arriving by
// t, then to that message's sender at its departure, down to 0. Waited
// arrivals increase along a rank's record and a send at t follows every
// waited arrival by t, so the walk takes each record from the back once.
func (rt *Runtime) walk(end float64) []Span {
	r, own := -1, false
	left := make([]int, rt.n) // rank q's edges not yet passed: edges[:left[q]]
	for q, p := range rt.procs {
		left[q] = len(p.edges)
		if o := rt.reduceVals[q] == end; max(p.vt, rt.model.PortDrain(q)) == end && (r < 0 || o && !own) {
			r, own = q, o
		}
	}
	prm := rt.model.Params()
	var path []Span
	for t, tag := end, AnyTag; ; {
		es := rt.procs[r].edges
		i := left[r] - 1
		for i >= 0 && es[i].To > t {
			i--
		}
		if i < 0 {
			path = append(path, Span{Rank: r, Src: -1, Tag: tag, To: t})
			slices.Reverse(path)
			return path
		}
		e := es[i]
		left[r] = i
		if tag == AnyTag {
			tag = e.Tag
		}
		d := rt.model.Path(e.Src, r).Dist
		e.Alpha, e.Wire = prm.Alpha[d], float64(e.Size)/prm.Beta[d]
		e.Queue = e.To - e.From - e.Alpha - e.Wire
		path = append(path, Span{Rank: r, Src: -1, Tag: tag, From: e.To, To: t}, e)
		r, t, tag = e.Src, e.From, e.Tag
	}
}

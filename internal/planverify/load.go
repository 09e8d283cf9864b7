package planverify

import (
	"fmt"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/perfmodel"
	"nbrallgather/internal/tags"
)

// Load is the schedule's static per-resource traffic accounting. It
// counts what the runtime counts — every message on the egress hops of
// its netmodel.Path: the sender's port, and its NIC and uplink when the
// path leaves the node or the group — so on a clean run every field
// equals the corresponding mpirt.Report field bit-for-bit.
type Load struct {
	// MsgsByDist / BytesByDist histogram traffic by topology distance
	// class (DistSelf … DistGlobal).
	MsgsByDist  [5]int64
	BytesByDist [5]int64
	// ResMsgs / ResBytes are indexed by resource in netmodel's
	// numbering (netmodel.Fabric): ports, then NICs, then uplinks.
	ResMsgs, ResBytes []int64

	fabric *netmodel.Fabric
	ranks  int
}

// Msgs returns the total message count.
func (l *Load) Msgs() int64 {
	var t int64
	for _, v := range l.MsgsByDist {
		t += v
	}
	return t
}

// Bytes returns the total bytes sent.
func (l *Load) Bytes() int64 {
	var t int64
	for _, v := range l.BytesByDist {
		t += v
	}
	return t
}

// BytesOf returns the bytes on each resource of kind k, by index; the
// ports stop at the schedule's rank count.
func (l *Load) BytesOf(k netmodel.ResourceKind) []int64 {
	lo, hi := l.fabric.Span(k)
	if k == netmodel.ResPort {
		hi = lo + l.ranks
	}
	return l.ResBytes[lo:hi]
}

// Load computes the schedule's static resource accounting.
func (s *Schedule) Load() *Load {
	f := netmodel.NewFabric(s.Cluster)
	n := s.Plan.Graph.N()
	l := &Load{ResMsgs: make([]int64, f.Resources()), ResBytes: make([]int64, f.Resources()), fabric: f, ranks: n}
	for r := 0; r < n; r++ {
		ops := s.Plan.Ops(r)
		for i := range ops {
			op := &ops[i]
			if op.Kind != collective.OpSend {
				continue
			}
			var size int64
			for _, b := range s.Plan.Blocks(op) {
				size += int64(s.Counts[b])
			}
			pa := f.Path(r, int(op.Peer))
			l.MsgsByDist[pa.Dist]++
			l.BytesByDist[pa.Dist] += size
			for h, id := range pa.Hops() {
				if netmodel.Egress(h) {
					l.ResMsgs[id]++
					l.ResBytes[id] += size
				}
			}
		}
	}
	return l
}

// RatioMaxMin returns max(xs) divided by the minimum positive entry —
// the max/min link-load ratio of a resource class. Zero-load entries
// are excluded from the minimum (an idle NIC is not an imbalance of
// the loaded ones); 0 when no entry is positive.
func RatioMaxMin(xs []int64) float64 {
	var max, min int64
	for _, v := range xs {
		if v <= 0 {
			continue
		}
		if v > max {
			max = v
		}
		if min == 0 || v < min {
			min = v
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// RatioMaxMean returns max(xs) divided by the mean over all entries
// (the runtime Report's imbalance convention); 0 for an empty or
// all-zero slice.
func RatioMaxMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var max, sum int64
	for _, v := range xs {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(xs)) / float64(sum)
}

// perfParams instantiates the perfmodel for this schedule's shape.
func (s *Schedule) perfParams() perfmodel.Params {
	return perfmodel.Params{
		N: s.Plan.Graph.N(),
		S: s.Cluster.SocketsPerNode,
		L: s.Cluster.RanksPerSocket,
	}
}

// sendCounts returns rank r's send count and how many of those are
// halving-phase sends: the DH step tags of the plan's collective, each
// family's step ladder being the top of its tag block.
func (s *Schedule) sendCounts(r int) (sends, halving int) {
	step := tags.DHStep
	if s.Plan.Alltoall() {
		step = tags.A2AStep
	}
	ops := s.Plan.Ops(r)
	for i := range ops {
		if ops[i].Kind != collective.OpSend {
			continue
		}
		sends++
		if int(ops[i].Tag) >= step {
			halving++
		}
	}
	return sends, halving
}

// checkLoadBounds cross-checks the static send counts against the
// perfmodel cost equations' structural bounds: a DH rank issues at
// most ⌈log2(n/L)⌉+1 halving-phase sends (the Eq. (8) step count that
// caps Eq. (1)'s N_off), and a naive rank issues exactly its
// out-degree (the δ·n term of Eq. (4) realized per rank).
func (s *Schedule) checkLoadBounds() []Finding {
	var out []Finding
	bound := int(s.perfParams().HalvingSteps())
	for r := 0; r < s.Plan.Graph.N(); r++ {
		sends, halving := s.sendCounts(r)
		switch s.Algo {
		case "dh":
			if halving > bound {
				out = append(out, Finding{InvLoadBound, r, fmt.Sprintf(
					"rank %d issues %d halving-phase sends, above the ⌈log2(n/L)⌉+1 = %d perfmodel bound",
					r, halving, bound)})
			}
		case "naive":
			if deg := s.Plan.Graph.OutDegree(r); sends != deg {
				out = append(out, Finding{InvLoadBound, r, fmt.Sprintf(
					"rank %d issues %d sends for out-degree %d", r, sends, deg)})
			}
		}
	}
	return out
}

// CrossCheck reports the static mean per-rank message counts next to
// the perfmodel expectations for the schedule's shape, for the CLI's
// model-vs-plan comparison table.
type CrossCheck struct {
	// Delta is the graph density δ used to instantiate the equations.
	Delta float64
	// HalvingBound is Eq. (8)'s step count ⌈log2(n/L)⌉+1.
	HalvingBound float64
	// NOff is Eq. (1), the expected off-socket halving sends per rank.
	NOff float64
	// NaiveMsgs is the δ·n direct-send expectation per rank.
	NaiveMsgs float64
	// StaticMean is the measured mean sends per rank in the plan.
	StaticMean float64
	// StaticHalvingMean is the measured mean halving-phase sends per
	// rank (meaningful for "dh" only).
	StaticHalvingMean float64
}

// CrossCheck computes the perfmodel comparison for this schedule.
func (s *Schedule) CrossCheck() CrossCheck {
	p := s.perfParams()
	delta := s.Plan.Graph.Density()
	n := s.Plan.Graph.N()
	var sends, halving int
	for r := 0; r < n; r++ {
		sr, hr := s.sendCounts(r)
		sends += sr
		halving += hr
	}
	return CrossCheck{
		Delta:             delta,
		HalvingBound:      p.HalvingSteps(),
		NOff:              p.NOff(delta),
		NaiveMsgs:         delta * float64(n),
		StaticMean:        float64(sends) / float64(n),
		StaticHalvingMean: float64(halving) / float64(n),
	}
}

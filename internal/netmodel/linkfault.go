// Link-level fault model: mutable per-resource health for the shared
// fabric resources the cost model serializes on — rank send ports, node
// NICs, group global uplinks — plus whole-fabric partitions.
//
// Faults are events scheduled in virtual time and they are permanent:
// the health of a resource at virtual time t is decided entirely by the
// set of faults with At ≤ t. That makes health a pure function of
// virtual time — independent of host scheduling, identical across the
// threaded and event engines, and bit-reproducible under chaos
// record/replay. (Flapping/recovering links would make the observable
// state depend on *when* each rank looked, which only a serial engine
// could keep deterministic; permanence keeps the whole matrix exact.)
//
// Three fault kinds exist:
//
//   - FaultDown marks a resource dead: any transfer that would need it
//     is undeliverable from At on. The runtime checks PathBlocked before
//     charging a transfer and surfaces a typed error instead of letting
//     the message hang (mpirt.LinkFailedError).
//   - FaultDegraded divides the resource's effective bandwidth by
//     Factor: transfers still complete, slower. Degradations compose
//     multiplicatively if several hit one resource.
//   - FaultPartition cuts the fabric between two sets of Dragonfly+
//     groups: inter-group transfers crossing the cut are undeliverable
//     (mpirt.PartitionError), intra-side traffic is untouched.
//
// Deliverability is a property of both endpoints: an off-node transfer
// needs the sender's port, both nodes' NICs, and (across groups) both
// groups' uplinks plus a cut-free fabric. Because every route out of a
// node crosses that node's one NIC and every route out of a group
// crosses that group's uplink, multi-hop relaying cannot route around a
// down resource — PathBlocked is therefore an exact reachability
// oracle, which is what lets the repair layer decide feasibility
// deterministically (see collective's link-aware rebuild).
package netmodel

import (
	"fmt"
	"math"
	"sort"

	"nbrallgather/internal/topology"
)

// ResourceKind names a class of faultable fabric resource.
type ResourceKind uint8

const (
	// ResPort is one rank's send port (the single-port assumption).
	ResPort ResourceKind = iota
	// ResNIC is one node's network interface; all off-node traffic of
	// the node's ranks crosses it, in both directions.
	ResNIC
	// ResUplink is one group's aggregated global-link capacity; all
	// inter-group traffic the group sends or receives crosses it.
	ResUplink
	// ResFabric is the fabric itself — the resource partition cuts
	// attach to. Index is the partition's injection order.
	ResFabric
)

// String names the kind for diagnostics.
func (k ResourceKind) String() string {
	switch k {
	case ResPort:
		return "port"
	case ResNIC:
		return "nic"
	case ResUplink:
		return "uplink"
	case ResFabric:
		return "fabric"
	}
	return fmt.Sprintf("resource-kind(%d)", uint8(k))
}

// Resource identifies one faultable resource instance. It is a
// comparable value type so detection can be memoised per (observer,
// resource) exactly like per-peer failure detection.
type Resource struct {
	Kind  ResourceKind
	Index int
}

// PortOf returns rank r's send-port resource.
func PortOf(r int) Resource { return Resource{Kind: ResPort, Index: r} }

// NICOf returns node n's NIC resource.
func NICOf(n int) Resource { return Resource{Kind: ResNIC, Index: n} }

// UplinkOf returns group g's global-uplink resource.
func UplinkOf(g int) Resource { return Resource{Kind: ResUplink, Index: g} }

// String renders the resource for diagnostics.
func (r Resource) String() string { return fmt.Sprintf("%s %d", r.Kind, r.Index) }

// FaultKind is the effect of one LinkFault.
type FaultKind uint8

const (
	// FaultDown makes the resource unusable from At on.
	FaultDown FaultKind = iota
	// FaultDegraded divides the resource's bandwidth by Factor from At on.
	FaultDegraded
	// FaultPartition cuts the fabric between Groups and its complement.
	FaultPartition
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDown:
		return "down"
	case FaultDegraded:
		return "degraded"
	case FaultPartition:
		return "partition"
	}
	return fmt.Sprintf("fault-kind(%d)", uint8(k))
}

// LinkFault is one permanent health event scheduled in virtual time.
type LinkFault struct {
	// Res is the affected resource (ResFabric for partitions; its Index
	// is assigned by InjectFaults).
	Res Resource
	// At is the virtual time the fault takes effect. 0 means the run
	// starts on the wounded fabric.
	At float64
	// Kind selects down / degraded / partition.
	Kind FaultKind
	// Factor, for FaultDegraded, divides the resource's bandwidth; it
	// must exceed 1 (a factor of 4 quarters the effective rate).
	Factor float64
	// Groups, for FaultPartition, lists the groups on one side of the
	// cut (ascending after injection); traffic between a listed and an
	// unlisted group is undeliverable.
	Groups []int
}

// LinkDown schedules res to fail hard at virtual time at.
func LinkDown(res Resource, at float64) LinkFault {
	return LinkFault{Res: res, At: at, Kind: FaultDown}
}

// LinkDegraded schedules res to run at 1/factor of its bandwidth from
// virtual time at.
func LinkDegraded(res Resource, at, factor float64) LinkFault {
	return LinkFault{Res: res, At: at, Kind: FaultDegraded, Factor: factor}
}

// Partition schedules a fabric cut at virtual time at between the given
// groups and every other group.
func Partition(at float64, groups ...int) LinkFault {
	return LinkFault{
		Res:    Resource{Kind: ResFabric},
		At:     at,
		Kind:   FaultPartition,
		Groups: append([]int(nil), groups...),
	}
}

// String renders the fault for diagnostics.
func (f LinkFault) String() string {
	switch f.Kind {
	case FaultDegraded:
		return fmt.Sprintf("%s degraded ÷%g @%g", f.Res, f.Factor, f.At)
	case FaultPartition:
		return fmt.Sprintf("partition groups %v @%g", f.Groups, f.At)
	}
	return fmt.Sprintf("%s down @%g", f.Res, f.At)
}

// partitionCut is one injected partition in lookup form.
type partitionCut struct {
	at     float64
	in     []bool // in[g]: group g is on the listed side
	groups []int  // the listed side, ascending
}

// Blocked describes why a transfer is undeliverable.
type Blocked struct {
	// Res is the down resource; Kind == ResFabric means a partition cut.
	Res Resource
	// Groups is the partition side for cuts, nil for resource faults.
	Groups []int
}

// IsPartition reports whether the block is a fabric cut rather than a
// single down resource.
func (b Blocked) IsPartition() bool { return b.Res.Kind == ResFabric }

// String renders the block for diagnostics.
func (b Blocked) String() string {
	if b.IsPartition() {
		return fmt.Sprintf("fabric partitioned at groups %v", b.Groups)
	}
	return fmt.Sprintf("%s down", b.Res)
}

// InjectFaults validates and installs link faults on the model. It must
// be called before the model starts charging transfers; fault state is
// immutable afterwards, so health lookups need no locking beyond the
// model's existing resource mutex.
func (m *Model) InjectFaults(faults []LinkFault) error {
	if len(faults) == 0 {
		return nil
	}
	groups := m.cluster.Groups()
	if m.faults == nil {
		m.faults = make([][]LinkFault, m.Resources())
	}
	for _, f := range faults {
		if f.At < 0 || math.IsNaN(f.At) || math.IsInf(f.At, 0) {
			return fmt.Errorf("netmodel: link fault At %g must be finite and non-negative", f.At)
		}
		switch f.Kind {
		case FaultDown, FaultDegraded:
			if f.Kind == FaultDegraded && (!(f.Factor > 1) || math.IsInf(f.Factor, 0)) {
				return fmt.Errorf("netmodel: degrade factor %g must be a finite value > 1", f.Factor)
			}
			lo, hi := m.Span(f.Res.Kind)
			if id := lo + f.Res.Index; f.Res.Index >= 0 && id < hi {
				m.faults[id] = append(m.faults[id], f)
			} else {
				return fmt.Errorf("netmodel: %s fault on %s: the cluster has no such port, nic or uplink", f.Kind, f.Res)
			}
		case FaultPartition:
			in := make([]bool, groups)
			for _, g := range f.Groups {
				if g < 0 || g >= groups {
					return fmt.Errorf("netmodel: partition group %d outside [0,%d)", g, groups)
				}
				in[g] = true
			}
			side := make([]int, 0, len(f.Groups))
			for g, ok := range in {
				if ok {
					side = append(side, g)
				}
			}
			if len(side) == 0 || len(side) == groups {
				return fmt.Errorf("netmodel: partition side %v must be a proper non-empty subset of %d groups", f.Groups, groups)
			}
			f.Res.Index = len(m.cuts)
			f.Groups = side
			m.cuts = append(m.cuts, partitionCut{at: f.At, in: in, groups: side})
		default:
			return fmt.Errorf("netmodel: unknown fault kind %d", f.Kind)
		}
		m.all = append(m.all, f)
	}
	sort.SliceStable(m.all, func(i, j int) bool { return m.all[i].At < m.all[j].At })
	return nil
}

// HasLinkFaults reports whether any fault is installed — the gate the
// runtime's hot paths use to keep a healthy fabric zero-overhead.
func (m *Model) HasLinkFaults() bool { return len(m.all) > 0 }

// healthAt folds one resource's faults active at t: whether one is
// down, and the product of the degrade divisors in list order (1 when
// healthy).
func healthAt(fs []LinkFault, t float64) (down bool, factor float64) {
	factor = 1
	for _, f := range fs {
		if f.At <= t {
			down = down || f.Kind == FaultDown
			if f.Kind == FaultDegraded {
				factor *= f.Factor
			}
		}
	}
	return down, factor
}

// PathBlocked reports whether a transfer src→dst is undeliverable at
// virtual time t, and which resource (or cut) blocks it: the first down
// hop of Path(src, dst), else, across groups, the first partition cut
// between them. The runtime consults it before charging a transfer; the
// repair layer consults it at t = +Inf (PathBlockedFinal) as the
// reachability oracle.
func (m *Model) PathBlocked(src, dst int, t float64) (Blocked, bool) {
	if len(m.all) == 0 {
		return Blocked{}, false
	}
	pa := m.Path(src, dst)
	for i, id := range pa.Hops() {
		if down, _ := healthAt(m.faults[id], t); down {
			k := hopKind[i]
			return Blocked{Res: Resource{Kind: k, Index: int(id) - m.base[k]}}, true
		}
	}
	if pa.Dist == topology.DistGlobal {
		gs, gd := int(pa.hops[3])-m.base[ResUplink], int(pa.hops[4])-m.base[ResUplink]
		for i := range m.cuts {
			pc := &m.cuts[i]
			if pc.at <= t && pc.in[gs] != pc.in[gd] {
				return Blocked{Res: Resource{Kind: ResFabric, Index: i}, Groups: pc.groups}, true
			}
		}
	}
	return Blocked{}, false
}

// PathBlockedFinal is PathBlocked with every scheduled fault applied —
// the end-state reachability the repair layer plans against. Every rank
// evaluates the same immutable fault set, so repair decisions are
// identical at every rank and on every engine.
func (m *Model) PathBlockedFinal(src, dst int) (Blocked, bool) {
	return m.PathBlocked(src, dst, math.Inf(1))
}

// ImpairedFinal reports whether rank r's own resources — its send port
// or its node's NIC — carry any fault in the end state. The repair
// layer uses it as the avoid set when electing relays (agents,
// delegates, leaders): an impaired rank can still do its own feasible
// edges, but no extra traffic should be routed through it.
func (m *Model) ImpairedFinal(r int) bool {
	if len(m.all) == 0 {
		return false
	}
	pl := &m.places[r]
	return len(m.faults[pl[0]]) > 0 || len(m.faults[pl[2]]) > 0
}

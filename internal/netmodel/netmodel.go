// Package netmodel implements the virtual-time communication cost model
// the simulator charges messages against.
//
// The model is the Hockney model the paper builds its Section V analysis
// on — a message of m bytes between two ranks costs α + m/β — extended
// with two refinements the paper's narrative relies on:
//
//   - α and β depend on the distance class between the two ranks
//     (same socket, same node, same Dragonfly+ group, or across groups),
//     so "communication with distant ranks" is genuinely more expensive;
//   - shared resources serialize: each rank has a single send port
//     (the paper's single-port assumption), each node has one NIC that
//     all its ranks' off-node traffic flows through, and each Dragonfly+
//     group has an aggregated global-link capacity that inter-group
//     traffic contends for (the fabric bottleneck of Section IV).
//
// Virtual time is a float64 number of seconds. The runtime keeps one
// clock per rank; the model owns the shared resources. Resource waits
// use simple monotone availability times: a transfer starts at the
// latest of its inputs' ready times and occupies each resource for the
// message's transmission time at that resource's rate.
package netmodel

import (
	"fmt"
	"slices"

	"nbrallgather/internal/topology"
)

// Params holds the calibration constants of the cost model. All times
// are in seconds, all rates in bytes per second.
type Params struct {
	// Alpha is the per-message latency by distance class.
	Alpha [5]float64
	// Beta is the point-to-point bandwidth by distance class.
	Beta [5]float64
	// SendOverhead is CPU time charged to the sender per message
	// (injection overhead, the o of the LogP family).
	SendOverhead float64
	// RecvOverhead is CPU time charged to the receiver per matched
	// message.
	RecvOverhead float64
	// NICBandwidth is the node injection bandwidth shared by every
	// rank on a node for off-node messages. Zero disables NIC
	// serialization.
	NICBandwidth float64
	// NICPerMsg is the per-message processing time at the node NIC
	// (the inverse message rate of the HCA); off-node messages from
	// all ranks of a node serialize behind it.
	NICPerMsg float64
	// GlobalLinkBandwidth is the aggregated global-link capacity of a
	// Dragonfly+ group, shared by all inter-group traffic the group
	// originates. Zero disables global-link serialization.
	GlobalLinkBandwidth float64
	// CopyBandwidth is the local memory-copy rate used for buffer
	// packing/unpacking and self-sends.
	CopyBandwidth float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	for d, b := range p.Beta {
		if b <= 0 {
			return fmt.Errorf("netmodel: Beta[%s] must be positive", topology.Distance(d))
		}
		if p.Alpha[d] < 0 {
			return fmt.Errorf("netmodel: Alpha[%s] must be non-negative", topology.Distance(d))
		}
	}
	if p.CopyBandwidth <= 0 {
		return fmt.Errorf("netmodel: CopyBandwidth must be positive")
	}
	if p.SendOverhead < 0 || p.RecvOverhead < 0 {
		return fmt.Errorf("netmodel: overheads must be non-negative")
	}
	if p.NICBandwidth < 0 || p.GlobalLinkBandwidth < 0 {
		return fmt.Errorf("netmodel: bandwidths must be non-negative")
	}
	if p.NICPerMsg < 0 {
		return fmt.Errorf("netmodel: NICPerMsg must be non-negative")
	}
	return nil
}

// NiagaraParams returns constants calibrated to resemble the paper's
// testbed: EDR InfiniBand (~12 GB/s injection), two-socket Skylake
// nodes, Dragonfly+ with tapered global bandwidth. The absolute values
// are approximations from published ping-pong figures for that class of
// hardware; the reproduction targets relative shapes, not microseconds.
func NiagaraParams() Params {
	var p Params
	p.Alpha[topology.DistSelf] = 50e-9
	p.Alpha[topology.DistSocket] = 250e-9
	p.Alpha[topology.DistNode] = 450e-9
	p.Alpha[topology.DistGroup] = 1.4e-6
	p.Alpha[topology.DistGlobal] = 2.2e-6

	p.Beta[topology.DistSelf] = 16e9
	p.Beta[topology.DistSocket] = 10e9
	p.Beta[topology.DistNode] = 7e9
	p.Beta[topology.DistGroup] = 5e9
	p.Beta[topology.DistGlobal] = 4.5e9

	p.SendOverhead = 150e-9
	p.RecvOverhead = 150e-9
	p.NICBandwidth = 12e9
	// ~3.3 M msg/s HCA message rate: the per-message cost all off-node
	// traffic of a node's ranks serializes behind.
	p.NICPerMsg = 300e-9
	// A 12-node group injecting at 12 GB/s each against ~36 GB/s of
	// aggregated global capacity gives the ~4:1 taper that makes the
	// global links the bottleneck the paper describes.
	p.GlobalLinkBandwidth = 36e9
	p.CopyBandwidth = 14e9
	return p
}

// UniformParams returns a deliberately topology-blind parameter set
// (all distance classes equal, no shared-resource serialization) for
// the flat-network ablation.
func UniformParams() Params {
	var p Params
	for d := range p.Alpha {
		p.Alpha[d] = 1e-6
		p.Beta[d] = 5e9
	}
	p.Alpha[topology.DistSelf] = 50e-9
	p.Beta[topology.DistSelf] = 16e9
	p.SendOverhead = 150e-9
	p.RecvOverhead = 150e-9
	p.CopyBandwidth = 14e9
	return p
}

// Fabric numbers a cluster's serializing resources once — every rank's
// send port (id = rank), then every node's NIC, then every group's
// uplink: the Resource kinds in order — and routes messages over them.
type Fabric struct {
	cluster topology.Cluster
	places  [][4]int32         // by rank: port, socket, NIC, uplink; Dist is the first shared
	base    [ResFabric + 1]int // kind k's ids are [base[k], base[k+1])
}

// NewFabric numbers the resources of a valid cluster.
func NewFabric(c topology.Cluster) *Fabric {
	f := &Fabric{cluster: c, places: make([][4]int32, c.Ranks())}
	f.base = [...]int{0, c.Ranks(), c.Ranks() + c.Nodes, c.Ranks() + c.Nodes + c.Groups()}
	for r := range f.places {
		f.places[r] = [4]int32{int32(r), int32(c.SocketOf(r)),
			int32(f.base[ResNIC] + c.NodeOf(r)), int32(f.base[ResUplink] + c.GroupOf(r))}
	}
	return f
}

// Resources returns how many resources the fabric numbers.
func (f *Fabric) Resources() int { return f.base[ResFabric] }

// Span returns the ids [lo, hi) of kind k's resources; ResFabric has none.
func (f *Fabric) Span(k ResourceKind) (lo, hi int) {
	k = min(k, ResFabric)
	return f.base[k], f.base[min(k+1, ResFabric)]
}

// Path is the route of one message: its distance class and the ids of
// the resources it crosses, in the order PathBlocked checks them — the
// sender's port, then (off-node) the source and destination NICs, then
// (across groups) the source and destination uplinks. The sender
// occupies, and is charged for, its own port, NIC and uplink (Egress).
type Path struct {
	Dist topology.Distance
	n    int
	hops [5]int32
}

// hopsAt is how many hops a distance class crosses, hopKind what each
// hop is: the one place that says distance ≥ DistGroup leaves the node
// and DistGlobal the group.
var (
	hopsAt  = [...]int{1, 1, 1, 3, 5}
	hopKind = [...]ResourceKind{ResPort, ResNIC, ResNIC, ResUplink, ResUplink}
)

// Path routes a message from src to dst.
func (f *Fabric) Path(src, dst int) Path {
	a, b := &f.places[src], &f.places[dst]
	var d topology.Distance
	for d < topology.DistGlobal && a[d] != b[d] {
		d++
	}
	return Path{Dist: d, n: hopsAt[d], hops: [5]int32{a[0], a[2], b[2], a[3], b[3]}}
}

// Hops returns the ids of the resources the path crosses.
func (pa *Path) Hops() []int32 { return pa.hops[:pa.n] }

// Egress reports whether a path's hop i is one its sender occupies: the
// port, the source NIC or the source uplink.
func Egress(i int) bool { return 0b01011>>i&1 != 0 }

// Model charges messages against the parameters and shared resources
// of one cluster's Fabric. It has one owner and no lock: Charge,
// PortDrain, Reset and Traffic must not run concurrently with Charge or
// Reset (mpirt serialises them where its ranks run concurrently).
type Model struct {
	*Fabric
	params Params

	free  []float64 // per resource: when it next idles
	msgs  []int64   // per resource: messages charged to it
	bytes []int64   // per resource: bytes charged to it
	// messages and bytes charged, by distance class
	distMsgs, distBytes [5]int64

	// Link-fault state, immutable after InjectFaults (linkfault.go):
	// per-resource fault lists, partition cuts, and the full set
	// ascending by At.
	faults [][]LinkFault
	cuts   []partitionCut
	all    []LinkFault
}

// New builds a model for the cluster. The params are validated.
func New(c topology.Cluster, p Params) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := NewFabric(c)
	n := f.Resources()
	return &Model{Fabric: f, params: p, free: make([]float64, n), msgs: make([]int64, n), bytes: make([]int64, n)}, nil
}

// Params returns the model's calibration constants.
func (m *Model) Params() Params { return m.params }

// Reset clears all resource availability times back to zero. The
// runtime calls it between timed collectives so each measurement starts
// from an idle network; the traffic counts run on.
func (m *Model) Reset() {
	clear(m.free)
}

// SendOverhead returns the CPU time a sender pays per injected message.
func (m *Model) SendOverhead() float64 { return m.params.SendOverhead }

// RecvOverhead returns the CPU time a receiver pays per matched message.
func (m *Model) RecvOverhead() float64 { return m.params.RecvOverhead }

// CopyTime returns the local memory-copy time for n bytes.
func (m *Model) CopyTime(n int) float64 {
	return float64(n) / m.params.CopyBandwidth
}

// Transfer charges a message of n bytes from src to dst whose sender is
// ready (post-overhead) at time ready — Charge over Path(src, dst) — and
// returns the virtual time at which it is available at the receiver.
func (m *Model) Transfer(src, dst, n int, ready float64) (arrival float64) {
	pa := m.Path(src, dst)
	return m.Charge(&pa, n, ready)
}

// Charge counts a message of n bytes in pa's distance class and on
// each egress hop of pa, and occupies the hops in order — port, NIC,
// uplink — each from the latest of the message's start and the hop's
// free time, so transfers through one resource serialize; it returns
// the last start plus the port time.
// The port is held α + n·f/β (single-port sender, the paper's Hockney
// assumption: latencies serialize too), a NIC NICPerMsg + (n/bw)·f, an
// uplink (n/bw)·f, each form kept exactly; a zero bandwidth leaves its
// kind unserialized, though counted. f divides the bandwidth by the
// degradations (LinkFault) active at the hop's start, 1 when healthy.
// Down resources never reach Charge: callers check PathBlocked first.
func (m *Model) Charge(pa *Path, n int, ready float64) (arrival float64) {
	p := &m.params
	faulty := len(m.all) > 0
	m.distMsgs[pa.Dist]++
	m.distBytes[pa.Dist] += int64(n)
	start, portT := ready, 0.0
	for i, id := range pa.Hops() {
		if !Egress(i) {
			continue
		}
		m.msgs[id]++
		m.bytes[id] += int64(n)
		kind, bw, perMsg := hopKind[i], p.NICBandwidth, p.NICPerMsg
		if kind == ResUplink {
			bw, perMsg = p.GlobalLinkBandwidth, 0
		}
		if kind != ResPort && !(bw > 0) {
			continue
		}
		if start < m.free[id] {
			start = m.free[id]
		}
		f := 1.0
		if faulty {
			_, f = healthAt(m.faults[id], start)
		}
		if kind == ResPort {
			portT = p.Alpha[pa.Dist] + float64(n)*f/p.Beta[pa.Dist]
			m.free[id] = start + portT
		} else {
			m.free[id] = start + perMsg + float64(float64(n)/bw*f)
		}
	}
	return start + portT
}

// PortDrain returns the time at which rank r's send port becomes idle —
// the completion time of its in-flight sends.
func (m *Model) PortDrain(r int) float64 { return m.free[r] }

// Traffic returns, by resource id, the messages and bytes Charge
// counted on each: structural — a hop whose bandwidth is zero still
// counts — so the static plan verifier's counts equal them.
func (m *Model) Traffic() (msgs, bytes []int64) {
	return slices.Clone(m.msgs), slices.Clone(m.bytes)
}

// DistTraffic returns the messages and bytes Charge counted, by
// distance class.
func (m *Model) DistTraffic() (msgs, bytes [5]int64) { return m.distMsgs, m.distBytes }

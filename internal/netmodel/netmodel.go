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
	"sync"

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

// Model charges messages against the parameters and shared resources
// for one cluster. It is safe for concurrent use by all rank
// goroutines.
type Model struct {
	params  Params
	cluster topology.Cluster
	places  []place // by rank, resolved once: a message divides nothing

	mu       sync.Mutex
	portFree []float64 // per-rank send-port availability
	nicFree  []float64 // per-node NIC availability
	glFree   []float64 // per-group global-link availability

	// Link-fault state, immutable after InjectFaults (linkfault.go):
	// per-resource fault lists, partition cuts, and the full set
	// ascending by At.
	lfPort   [][]LinkFault
	lfNIC    [][]LinkFault
	lfUplink [][]LinkFault
	lfParts  []partitionCut
	lfAll    []LinkFault
}

// place is a rank, its socket, its node and its Dragonfly+ group: two
// ranks' distance is the first of the four they share.
type place [4]int32

// New builds a model for the cluster. The params are validated.
func New(c topology.Cluster, p Params) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		params:   p,
		cluster:  c,
		places:   make([]place, c.Ranks()),
		portFree: make([]float64, c.Ranks()),
		nicFree:  make([]float64, c.Nodes),
		glFree:   make([]float64, c.Groups()),
	}
	for r := range m.places {
		m.places[r] = place{int32(r), int32(c.SocketOf(r)), int32(c.NodeOf(r)), int32(c.GroupOf(r))}
	}
	return m, nil
}

// Route is topology.Cluster.Dist(src, dst) read off the placement table,
// with the node NIC and the group uplink src's traffic crosses.
func (m *Model) Route(src, dst int) (d topology.Distance, nic, uplink int) {
	a, b := &m.places[src], &m.places[dst]
	for d < topology.DistGlobal && a[d] != b[d] {
		d++
	}
	return d, int(a[2]), int(a[3])
}

// Params returns the model's calibration constants.
func (m *Model) Params() Params { return m.params }

// Cluster returns the cluster the model was built for.
func (m *Model) Cluster() topology.Cluster { return m.cluster }

// Reset clears all resource availability times back to zero. The
// runtime calls it between timed collectives so each measurement starts
// from an idle network.
func (m *Model) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.portFree)
	clear(m.nicFree)
	clear(m.glFree)
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
// ready (post-overhead) at time ready, and returns the virtual time at
// which the message is available at the receiver. Shared resources are
// advanced as a side effect, so concurrent transfers through the same
// NIC or global link serialize.
// Degraded links (LinkFault, linkfault.go) divide the effective
// bandwidth of each resource the transfer crosses; the degrade state is
// evaluated at the resource's usage start time, which serial engines
// make deterministic. Down resources never reach Transfer: callers
// check PathBlocked first and surface a typed error instead.
func (m *Model) Transfer(src, dst, n int, ready float64) (arrival float64) {
	d, node, grp := m.Route(src, dst)
	p := &m.params
	faulty := len(m.lfAll) > 0

	m.mu.Lock()
	start := ready
	// Single-port sender, exactly the paper's Hockney assumption:
	// each message occupies the sender's port for α + m/β, so
	// consecutive sends from one rank serialize including their
	// latency term.
	if start < m.portFree[src] {
		start = m.portFree[src]
	}
	portT := p.Alpha[d] + float64(n)/p.Beta[d]
	if faulty {
		portT = p.Alpha[d] + float64(n)*faultsFactorAt(m.lfPort[src], start)/p.Beta[d]
	}
	m.portFree[src] = start + portT

	if d >= topology.DistGroup && p.NICBandwidth > 0 {
		if start < m.nicFree[node] {
			start = m.nicFree[node]
		}
		nicT := float64(n) / p.NICBandwidth
		if faulty {
			nicT *= faultsFactorAt(m.lfNIC[node], start)
		}
		m.nicFree[node] = start + p.NICPerMsg + nicT
	}
	if d == topology.DistGlobal && p.GlobalLinkBandwidth > 0 {
		if start < m.glFree[grp] {
			start = m.glFree[grp]
		}
		glT := float64(n) / p.GlobalLinkBandwidth
		if faulty {
			glT *= faultsFactorAt(m.lfUplink[grp], start)
		}
		m.glFree[grp] = start + glT
	}
	m.mu.Unlock()

	return start + portT
}

// PortDrain returns the time at which rank r's send port becomes idle —
// the completion time of its in-flight sends.
func (m *Model) PortDrain(r int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.portFree[r]
}

// PointToPoint returns the unloaded Hockney cost α + n/β for a message
// between src and dst, with no resource contention. The performance
// model package uses it for its closed-form predictions.
func (m *Model) PointToPoint(src, dst, n int) float64 {
	d, _, _ := m.Route(src, dst)
	return m.params.Alpha[d] + float64(n)/m.params.Beta[d]
}

// Package topology describes the physical layout of a simulated cluster:
// a hierarchy of groups → nodes → sockets → ranks, with dense rank
// placement and a distance classification between any two ranks.
//
// The layout mirrors the machines discussed in the paper: Niagara-style
// nodes with two sockets, interconnected by a Dragonfly+-like fabric in
// which nodes are organised into groups joined by scarce global links.
// The distance between two ranks is what the network cost model
// (internal/netmodel) keys its latency and bandwidth constants on, and
// what the Distance Halving algorithm implicitly exploits by confining
// late communication to single sockets.
package topology

import (
	"errors"
	"fmt"
	"math/rand"
)

// Distance classifies how far apart two ranks are placed. Larger values
// are strictly "farther" in the sense of crossing more expensive links.
type Distance int

const (
	// DistSelf is a rank communicating with itself (pure memcpy).
	DistSelf Distance = iota
	// DistSocket is two ranks on the same socket (shared L3 / memory).
	DistSocket
	// DistNode is two ranks on the same node but different sockets
	// (crosses the inter-socket interconnect, e.g. UPI).
	DistNode
	// DistGroup is two ranks on different nodes within the same
	// Dragonfly+ group (one or two local switch hops).
	DistGroup
	// DistGlobal is two ranks in different groups (traverses a global
	// link, the fabric's bottleneck resource).
	DistGlobal
)

// String returns a short human-readable label for the distance class.
func (d Distance) String() string {
	switch d {
	case DistSelf:
		return "self"
	case DistSocket:
		return "socket"
	case DistNode:
		return "node"
	case DistGroup:
		return "group"
	case DistGlobal:
		return "global"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// Cluster is an immutable description of the machine shape. Ranks are
// placed densely: rank r lives on node r / RanksPerNode(), and within a
// node fills socket 0 before socket 1, matching the block placement the
// paper assumes (consecutive ranks share sockets and nodes).
type Cluster struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// SocketsPerNode is the number of CPU sockets in each node.
	SocketsPerNode int
	// RanksPerSocket is the number of MPI ranks bound to each socket;
	// this is the paper's parameter L, the halving stop threshold.
	RanksPerSocket int
	// NodesPerGroup is the number of nodes per Dragonfly+ group. Zero
	// means a flat network: every inter-node pair is DistGroup and no
	// global links exist.
	NodesPerGroup int
	// NodeGroup, when non-nil, overrides the dense node→group
	// assignment: NodeGroup[i] is node i's Dragonfly+ group. Use
	// Scattered to model a batch scheduler handing the job
	// fabric-scattered nodes, as the paper's runs experienced ("each
	// time different nodes are assigned to the job"). Must have one
	// entry per node with group ids in [0, Groups()).
	NodeGroup []int
}

// Validate reports whether the cluster shape is usable.
func (c Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return errors.New("topology: Nodes must be positive")
	case c.SocketsPerNode <= 0:
		return errors.New("topology: SocketsPerNode must be positive")
	case c.RanksPerSocket <= 0:
		return errors.New("topology: RanksPerSocket must be positive")
	case c.NodesPerGroup < 0:
		return errors.New("topology: NodesPerGroup must be non-negative")
	}
	if c.NodeGroup != nil {
		if len(c.NodeGroup) != c.Nodes {
			return fmt.Errorf("topology: NodeGroup has %d entries for %d nodes", len(c.NodeGroup), c.Nodes)
		}
		groups := c.Groups()
		for i, g := range c.NodeGroup {
			if g < 0 || g >= groups {
				return fmt.Errorf("topology: NodeGroup[%d] = %d outside [0,%d)", i, g, groups)
			}
		}
	}
	return nil
}

// Ranks returns the total number of ranks the cluster hosts (the
// communicator size n when the whole machine is used).
func (c Cluster) Ranks() int {
	return c.Nodes * c.SocketsPerNode * c.RanksPerSocket
}

// RanksPerNode returns the number of ranks on each node (the paper's
// S·L).
func (c Cluster) RanksPerNode() int {
	return c.SocketsPerNode * c.RanksPerSocket
}

// L returns the halving stop threshold: the number of ranks per socket.
func (c Cluster) L() int { return c.RanksPerSocket }

// NodeOf returns the node index hosting rank r.
func (c Cluster) NodeOf(r int) int { return r / c.RanksPerNode() }

// SocketOf returns the global socket index hosting rank r; socket
// indices are unique across the cluster.
func (c Cluster) SocketOf(r int) int { return r / c.RanksPerSocket }

// GroupOf returns the Dragonfly+ group index of rank r. On a flat
// network (NodesPerGroup == 0) every rank is in group 0.
func (c Cluster) GroupOf(r int) int {
	if c.NodesPerGroup <= 0 {
		return 0
	}
	node := c.NodeOf(r)
	if c.NodeGroup != nil {
		return c.NodeGroup[node]
	}
	return node / c.NodesPerGroup
}

// Groups returns the number of Dragonfly+ groups (1 for flat networks).
func (c Cluster) Groups() int {
	if c.NodesPerGroup <= 0 {
		return 1
	}
	return (c.Nodes + c.NodesPerGroup - 1) / c.NodesPerGroup
}

// Dist classifies the distance between ranks a and b.
func (c Cluster) Dist(a, b int) Distance {
	switch {
	case a == b:
		return DistSelf
	case c.SocketOf(a) == c.SocketOf(b):
		return DistSocket
	case c.NodeOf(a) == c.NodeOf(b):
		return DistNode
	case c.NodesPerGroup <= 0 || c.GroupOf(a) == c.GroupOf(b):
		return DistGroup
	default:
		return DistGlobal
	}
}

// String summarises the cluster shape.
func (c Cluster) String() string {
	return fmt.Sprintf("%d nodes × %d sockets × %d ranks (%d ranks, %d groups)",
		c.Nodes, c.SocketsPerNode, c.RanksPerSocket, c.Ranks(), c.Groups())
}

// Niagara returns a cluster shaped like the paper's testbed: two-socket
// nodes with ranksPerSocket ranks bound to each socket (the paper uses
// 18 for the 36-rank-per-node random-graph runs and 16 for the
// 32-rank-per-node Moore runs) and Dragonfly+ groups of 12 nodes.
func Niagara(nodes, ranksPerSocket int) Cluster {
	return Cluster{
		Nodes:          nodes,
		SocketsPerNode: 2,
		RanksPerSocket: ranksPerSocket,
		NodesPerGroup:  12,
	}
}

// Flat returns a single-group cluster with uniform inter-node distance,
// used by the flat-network ablation.
func Flat(nodes, socketsPerNode, ranksPerSocket int) Cluster {
	return Cluster{
		Nodes:          nodes,
		SocketsPerNode: socketsPerNode,
		RanksPerSocket: ranksPerSocket,
		NodesPerGroup:  0,
	}
}

// Scattered returns a copy of the cluster whose nodes are assigned to
// Dragonfly+ groups in a seeded random shuffle, modelling a batch
// scheduler handing the job nodes scattered across the fabric: ranks
// that are close in rank space may now sit in different groups, as on
// the paper's testbed. Group sizes are preserved. Flat clusters are
// returned unchanged.
func (c Cluster) Scattered(seed int64) Cluster {
	if c.NodesPerGroup <= 0 || c.Nodes <= 1 {
		return c
	}
	assign := make([]int, c.Nodes)
	for i := range assign {
		assign[i] = i / c.NodesPerGroup
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(assign), func(i, j int) {
		assign[i], assign[j] = assign[j], assign[i]
	})
	c.NodeGroup = assign
	return c
}

// ForRanks builds the smallest Niagara-style cluster hosting at least n
// ranks with the given ranks-per-socket, convenient for tests that only
// care about the communicator size.
func ForRanks(n, ranksPerSocket int) Cluster {
	if ranksPerSocket <= 0 {
		ranksPerSocket = 1
	}
	perNode := 2 * ranksPerSocket
	nodes := (n + perNode - 1) / perNode
	if nodes == 0 {
		nodes = 1
	}
	return Niagara(nodes, ranksPerSocket)
}

package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"nbrallgather/internal/topology"
)

// refModel is the cost model as it stood before the fabric numbered its
// resources: one stanza per resource class in Transfer, PathBlocked and
// the runtime's send-side counters, each re-deriving the route from the
// cluster, and one availability and fault array per class. Its method
// bodies are the old ones verbatim; TestModelEqualsReference holds the
// one-loop Model to them bit for bit.
type refModel struct {
	params  Params
	cluster topology.Cluster
	places  []refPlace

	mu       sync.Mutex
	portFree []float64 // per-rank send-port availability
	nicFree  []float64 // per-node NIC availability
	glFree   []float64 // per-group global-link availability

	lfPort   [][]LinkFault
	lfNIC    [][]LinkFault
	lfUplink [][]LinkFault
	lfParts  []partitionCut
	lfAll    []LinkFault

	// The runtime's send-side counters: RankMsgs/RankBytes by rank,
	// NICMsgs/NICBytes by node, UplinkMsgs/UplinkBytes by group.
	rankMsgs, rankBytes, nicMsgs, nicBytes, glMsgs, glBytes []int64
}

// refPlace is a rank, its socket, its node and its Dragonfly+ group.
type refPlace [4]int32

func newRef(c topology.Cluster, p Params) *refModel {
	m := &refModel{
		params:   p,
		cluster:  c,
		places:   make([]refPlace, c.Ranks()),
		portFree: make([]float64, c.Ranks()),
		nicFree:  make([]float64, c.Nodes),
		glFree:   make([]float64, c.Groups()),
	}
	for r := range m.places {
		m.places[r] = refPlace{int32(r), int32(c.SocketOf(r)), int32(c.NodeOf(r)), int32(c.GroupOf(r))}
	}
	m.rankMsgs, m.rankBytes = make([]int64, c.Ranks()), make([]int64, c.Ranks())
	m.nicMsgs, m.nicBytes = make([]int64, c.Nodes), make([]int64, c.Nodes)
	m.glMsgs, m.glBytes = make([]int64, c.Groups()), make([]int64, c.Groups())
	return m
}

func (m *refModel) Route(src, dst int) (d topology.Distance, nic, uplink int) {
	a, b := &m.places[src], &m.places[dst]
	for d < topology.DistGlobal && a[d] != b[d] {
		d++
	}
	return d, int(a[2]), int(a[3])
}

func (m *refModel) Transfer(src, dst, n int, ready float64) (arrival float64) {
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

// count is the runtime's three send-side charging rules: the sender's
// port always, its node NIC at distance ≥ DistGroup, its group uplink at
// DistGlobal.
func (m *refModel) count(src, dst, size int) {
	d, node, grp := m.Route(src, dst)
	m.rankMsgs[src]++
	m.rankBytes[src] += int64(size)
	if d >= topology.DistGroup {
		m.nicMsgs[node]++
		m.nicBytes[node] += int64(size)
	}
	if d == topology.DistGlobal {
		m.glMsgs[grp]++
		m.glBytes[grp] += int64(size)
	}
}

func (m *refModel) InjectFaults(faults []LinkFault) error {
	if len(faults) == 0 {
		return nil
	}
	c := m.cluster
	if m.lfPort == nil {
		m.lfPort = make([][]LinkFault, c.Ranks())
		m.lfNIC = make([][]LinkFault, c.Nodes)
		m.lfUplink = make([][]LinkFault, c.Groups())
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
			switch f.Res.Kind {
			case ResPort:
				if f.Res.Index < 0 || f.Res.Index >= c.Ranks() {
					return fmt.Errorf("netmodel: port fault rank %d outside [0,%d)", f.Res.Index, c.Ranks())
				}
				m.lfPort[f.Res.Index] = append(m.lfPort[f.Res.Index], f)
			case ResNIC:
				if f.Res.Index < 0 || f.Res.Index >= c.Nodes {
					return fmt.Errorf("netmodel: NIC fault node %d outside [0,%d)", f.Res.Index, c.Nodes)
				}
				m.lfNIC[f.Res.Index] = append(m.lfNIC[f.Res.Index], f)
			case ResUplink:
				if f.Res.Index < 0 || f.Res.Index >= c.Groups() {
					return fmt.Errorf("netmodel: uplink fault group %d outside [0,%d)", f.Res.Index, c.Groups())
				}
				m.lfUplink[f.Res.Index] = append(m.lfUplink[f.Res.Index], f)
			default:
				return fmt.Errorf("netmodel: %s fault needs a port/nic/uplink resource, got %s", f.Kind, f.Res.Kind)
			}
		case FaultPartition:
			in := make([]bool, c.Groups())
			for _, g := range f.Groups {
				if g < 0 || g >= c.Groups() {
					return fmt.Errorf("netmodel: partition group %d outside [0,%d)", g, c.Groups())
				}
				in[g] = true
			}
			side := make([]int, 0, len(f.Groups))
			for g, ok := range in {
				if ok {
					side = append(side, g)
				}
			}
			if len(side) == 0 || len(side) == c.Groups() {
				return fmt.Errorf("netmodel: partition side %v must be a proper non-empty subset of %d groups", f.Groups, c.Groups())
			}
			f.Res.Index = len(m.lfParts)
			f.Groups = side
			m.lfParts = append(m.lfParts, partitionCut{at: f.At, in: in, groups: side})
		default:
			return fmt.Errorf("netmodel: unknown fault kind %d", f.Kind)
		}
		m.lfAll = append(m.lfAll, f)
	}
	sort.SliceStable(m.lfAll, func(i, j int) bool { return m.lfAll[i].At < m.lfAll[j].At })
	return nil
}

func (m *refModel) PathBlocked(src, dst int, t float64) (Blocked, bool) {
	if len(m.lfAll) == 0 {
		return Blocked{}, false
	}
	if faultsDownAt(m.lfPort[src], t) {
		return Blocked{Res: PortOf(src)}, true
	}
	d := m.cluster.Dist(src, dst)
	if d >= topology.DistGroup {
		ns, nd := m.cluster.NodeOf(src), m.cluster.NodeOf(dst)
		if faultsDownAt(m.lfNIC[ns], t) {
			return Blocked{Res: NICOf(ns)}, true
		}
		if faultsDownAt(m.lfNIC[nd], t) {
			return Blocked{Res: NICOf(nd)}, true
		}
	}
	if d == topology.DistGlobal {
		gs, gd := m.cluster.GroupOf(src), m.cluster.GroupOf(dst)
		if faultsDownAt(m.lfUplink[gs], t) {
			return Blocked{Res: UplinkOf(gs)}, true
		}
		if faultsDownAt(m.lfUplink[gd], t) {
			return Blocked{Res: UplinkOf(gd)}, true
		}
		for i := range m.lfParts {
			pc := &m.lfParts[i]
			if pc.at <= t && pc.in[gs] != pc.in[gd] {
				return Blocked{Res: Resource{Kind: ResFabric, Index: i}, Groups: pc.groups}, true
			}
		}
	}
	return Blocked{}, false
}

// faultsDownAt reports whether any down fault in fs is active at t.
func faultsDownAt(fs []LinkFault, t float64) bool {
	for _, f := range fs {
		if f.Kind == FaultDown && f.At <= t {
			return true
		}
	}
	return false
}

// faultsFactorAt returns the composed degrade divisor active at t (1
// when healthy).
func faultsFactorAt(fs []LinkFault, t float64) float64 {
	fac := 1.0
	for _, f := range fs {
		if f.Kind == FaultDegraded && f.At <= t {
			fac *= f.Factor
		}
	}
	return fac
}

func (m *refModel) ImpairedFinal(r int) bool {
	if len(m.lfAll) == 0 {
		return false
	}
	return len(m.lfPort[r]) > 0 || len(m.lfNIC[m.cluster.NodeOf(r)]) > 0
}

// randomFaults draws up to four faults over c — down, degraded (one
// factor or a product) and partitions, at time 0 or within the first
// microseconds a transfer sequence spans — plus, one time in eight, a
// fault on a resource the cluster does not have.
func randomFaults(rng *rand.Rand, c topology.Cluster) []LinkFault {
	var fs []LinkFault
	for range rng.Intn(5) {
		at := []float64{0, 1e-6, 5e-6, 40e-6}[rng.Intn(4)]
		var res Resource
		switch rng.Intn(3) {
		case 0:
			res = PortOf(rng.Intn(c.Ranks()))
		case 1:
			res = NICOf(rng.Intn(c.Nodes))
		default:
			res = UplinkOf(rng.Intn(c.Groups()))
		}
		switch rng.Intn(4) {
		case 0:
			fs = append(fs, LinkDown(res, at))
		case 1, 2:
			fs = append(fs, LinkDegraded(res, at, []float64{1.5, 2, 3, 7.25}[rng.Intn(4)]))
		default:
			if g := c.Groups(); g > 1 {
				side := rng.Perm(g)[:1+rng.Intn(g-1)]
				fs = append(fs, Partition(at, side...))
			}
		}
	}
	if rng.Intn(8) == 0 {
		fs = append(fs, LinkDown(Resource{Kind: ResourceKind(rng.Intn(4)), Index: []int{-1, c.Ranks(), c.Nodes, c.Groups()}[rng.Intn(4)]}, 0))
	}
	return fs
}

// TestModelEqualsReference: over random cluster shapes × {Niagara,
// uniform, Niagara without NIC or uplink serialization} × random fault
// sets × random transfer sequences, the Model agrees with refModel bit
// for bit — every arrival, every resource's availability and PortDrain,
// every per-resource and per-distance count, every PathBlocked verdict and blocking
// resource (at the transfer's time and in the end state), every
// ImpairedFinal, and whether InjectFaults accepts the set.
func TestModelEqualsReference(t *testing.T) {
	noNIC, noUplink := NiagaraParams(), NiagaraParams()
	noNIC.NICBandwidth = 0
	noUplink.GlobalLinkBandwidth = 0
	params := []Params{NiagaraParams(), UniformParams(), noNIC, noUplink}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := topology.Cluster{Nodes: 1 + rng.Intn(6), SocketsPerNode: 1 + rng.Intn(2),
			RanksPerSocket: 1 + rng.Intn(3), NodesPerGroup: rng.Intn(4)}
		if rng.Intn(3) == 0 {
			c = c.Scattered(seed)
		}
		p := params[rng.Intn(len(params))]
		m, ref := mustModel(t, c, p), newRef(c, p)
		fs := randomFaults(rng, c)
		errM, errR := m.InjectFaults(fs), ref.InjectFaults(fs)
		if (errM == nil) != (errR == nil) {
			t.Logf("seed %d: %v: InjectFaults(%v) = %v, reference %v", seed, c, fs, errM, errR)
			return false
		}
		if errM != nil {
			return true
		}
		bad := func(format string, args ...any) bool {
			t.Logf("seed %d: %v, faults %v: "+format, append([]any{seed, c, fs}, args...)...)
			return false
		}
		ready := 0.0
		var distMsgs, distBytes [5]int64
		for range 1 + rng.Intn(40) {
			src, dst := rng.Intn(c.Ranks()), rng.Intn(c.Ranks())
			n := []int{0, 1, 1024, 65536, 1 << 20}[rng.Intn(5)] + rng.Intn(64)
			ready += rng.Float64() * 4e-6
			for _, at := range []float64{ready, math.Inf(1)} {
				blk, ok := m.PathBlocked(src, dst, at)
				rblk, rok := ref.PathBlocked(src, dst, at)
				if ok != rok || blk.Res != rblk.Res || !slices.Equal(blk.Groups, rblk.Groups) {
					return bad("PathBlocked(%d, %d, %g) = %v %v, reference %v %v", src, dst, at, blk, ok, rblk, rok)
				}
			}
			a, ra := m.Transfer(src, dst, n, ready), ref.Transfer(src, dst, n, ready)
			ref.count(src, dst, n)
			distMsgs[c.Dist(src, dst)]++
			distBytes[c.Dist(src, dst)] += int64(n)
			if math.Float64bits(a) != math.Float64bits(ra) {
				return bad("Transfer(%d, %d, %d, %g) = %v, reference %v", src, dst, n, ready, a, ra)
			}
			want := slices.Concat(ref.portFree, ref.nicFree, ref.glFree)
			for id := range want {
				if math.Float64bits(m.free[id]) != math.Float64bits(want[id]) {
					return bad("after %d→%d: resource %d free at %v, reference %v", src, dst, id, m.free[id], want[id])
				}
			}
			if r := rng.Intn(c.Ranks()); math.Float64bits(m.PortDrain(r)) != math.Float64bits(ref.portFree[r]) {
				return bad("PortDrain(%d) = %v, reference %v", r, m.PortDrain(r), ref.portFree[r])
			}
		}
		msgs, bytes := m.Traffic()
		if !slices.Equal(msgs, slices.Concat(ref.rankMsgs, ref.nicMsgs, ref.glMsgs)) ||
			!slices.Equal(bytes, slices.Concat(ref.rankBytes, ref.nicBytes, ref.glBytes)) {
			return bad("traffic %v / %v, reference ports %v %v, nics %v %v, uplinks %v %v", msgs, bytes,
				ref.rankMsgs, ref.rankBytes, ref.nicMsgs, ref.nicBytes, ref.glMsgs, ref.glBytes)
		}
		if dm, db := m.DistTraffic(); dm != distMsgs || db != distBytes {
			return bad("traffic by distance %v / %v, want %v / %v", dm, db, distMsgs, distBytes)
		}
		for r := range c.Ranks() {
			if m.ImpairedFinal(r) != ref.ImpairedFinal(r) {
				return bad("ImpairedFinal(%d) = %v", r, m.ImpairedFinal(r))
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

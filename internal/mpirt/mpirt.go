// Package mpirt is an MPI-like simulated runtime: the execution
// substrate that stands in for Open MPI in this reproduction.
//
// Each rank runs its body with a *Proc handle offering MPI-shaped
// point-to-point primitives — tagged sends and receives with
// (source, tag) matching including AnySource/AnyTag wildcards, and
// barriers.
// Messages carry real byte payloads (so algorithm correctness is
// validated on data, not on a model) unless the runtime is in phantom
// mode, where payloads are size-only and only the cost model sees them —
// that is how paper-scale message sizes are simulated without
// paper-scale memory.
//
// Every rank also carries a virtual clock. Sends and receives advance
// clocks through the netmodel cost model, so the completion time of a
// collective — the quantity every figure in the paper plots — is the
// maximum virtual time over ranks.
//
// The blocking primitives are written once, against a small seam (see
// driver) that three drivers implement: the serial event loop — the
// default, deterministic, and the one every published number comes
// from — the seeded chaos scheduler, which hosts ranks on the same
// coroutines and resumes them in an adversarial seeded order, and the
// goroutine-per-rank threaded engine kept as the host-parallel oracle
// for -race and differential testing. All three receive through one
// Proc.recv, detect deadlocks with one wait-for-graph detector and one
// summary, and convert rank panics into errors returned from Run; only
// the threaded one blocks a Step-form wait, the serial two step ranks.
package mpirt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
)

// Wildcards for Recv matching, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrDeadlock is wrapped into the Run error when a driver proves the
// run deadlocked: a wait-for cycle closed, or every live rank is blocked
// with nothing deliverable (the serial drivers know it exactly; the
// threaded engine's watchdog samples it).
var ErrDeadlock = errors.New("mpirt: deadlock detected")

// errAborted unwinds ranks once the runtime has failed.
var errAborted = errors.New("mpirt: runtime aborted")

// Msg is one received message.
type Msg struct {
	// Src is the sending rank.
	Src int
	// Tag is the message tag.
	Tag int
	// Size is the payload size in bytes as charged to the cost model.
	Size int
	// Data is the payload, a read-only snapshot other receivers may
	// share; nil in phantom mode even when Size > 0, and in a composite.
	Data []byte
	// Meta carries structured side data (segment maps, protocol
	// signals). It is not charged to the cost model; real
	// implementations would encode it into a small header.
	Meta any

	depart, arrival float64 // sender's clock after its overhead; modelled receivable time
	// pooled, when non-nil, is the pool buffer backing Data, or a
	// composite; Release lets go of it (see pool.go for the ownership rules).
	pooled *pbuf
	// seq is the mailbox enqueue stamp: wildcard receives take the
	// minimum across match lists, reproducing single-queue FIFO order.
	seq uint64
	// next links the message into its mailbox match list; nil whenever
	// the message is not queued.
	next *Msg
}

// Config describes one runtime execution.
type Config struct {
	// Cluster is the machine shape ranks are placed on.
	Cluster topology.Cluster
	// Ranks is the communicator size; 0 means every rank the cluster
	// hosts. Must not exceed Cluster.Ranks().
	Ranks int
	// Params are the cost-model constants; the zero value selects
	// netmodel.NiagaraParams.
	Params netmodel.Params
	// Phantom selects size-only payloads.
	Phantom bool
	// WallLimit aborts the run if host wall-clock exceeds it
	// (default 120 s), on every driver. This is a harness safety net,
	// distinct from virtual time.
	WallLimit time.Duration
	// CriticalPath records every receive that waited for its message and
	// walks the record into Report.Path; off, nothing is recorded.
	CriticalPath bool
	// Chaos, when non-nil, runs the execution under the deterministic
	// chaos scheduler — whatever Engine says: serial execution of the
	// ranks as coroutines with seeded adversarial scheduling and
	// message-matching order, fault injection, and full schedule
	// record/replay. See the Chaos type.
	Chaos *Chaos
	// Kills schedules injected fail-stop crashes: each victim rank dies
	// permanently once it has passed the kill's operation count and
	// virtual time. Deaths do not fail the run by themselves — peers
	// observe them through the ULFM-style error surface (see
	// RankFailedError, Revoke, Agree, Shrink).
	Kills []Kill
	// LinkFaults schedules link-level health events on the fabric: down
	// or degraded ports/NICs/uplinks and group partitions, each taking
	// effect at a virtual time. Down paths surface LinkFailedError /
	// PartitionError from sends and receives instead of hanging;
	// degraded resources divide their effective bandwidth. See
	// netmodel.LinkFault.
	LinkFaults []netmodel.LinkFault
	// Engine selects the driver of a plain (Chaos == nil) run:
	// EngineEvent, the deterministic serial event loop and the zero
	// value's meaning, or EngineThreaded, the goroutine-per-rank oracle.
	// See the Engine type.
	Engine Engine
}

// Report summarises one runtime execution.
type Report struct {
	// Time is the final collective completion estimate: the maximum
	// over ranks of their virtual clock and send-port drain.
	Time float64
	// MsgsByDist and BytesByDist count sent messages by distance class.
	MsgsByDist  [5]int64
	BytesByDist [5]int64
	// MaxRankMsgs and MaxRankBytes are the largest per-rank send
	// counts (load-imbalance indicators); Ranks is the communicator
	// size they are relative to.
	MaxRankMsgs  int64
	MaxRankBytes int64
	Ranks        int
	// ResMsgs and ResBytes are the traffic each fabric resource carried,
	// indexed in netmodel's numbering (netmodel.Fabric): one entry per
	// cluster rank's send port (id = rank; ranks beyond Ranks stay 0),
	// then per node NIC, then per group uplink. A message counts on its
	// sender's port, and on its sender's NIC and uplink when its path
	// leaves the node or the group (netmodel.Path). The accounting is
	// structural — counted whether or not the bandwidth parameters
	// serialize that hop — so the static plan verifier's counts
	// (internal/planverify) equal these bit-for-bit on clean runs.
	ResMsgs, ResBytes []int64
	// Wall is the host wall-clock the run took.
	Wall time.Duration
	// DeadRanks lists the ranks that suffered injected fail-stop
	// crashes during the run, ascending.
	DeadRanks []int
	// Detections counts first-time failure detections across ranks;
	// DetectTime is their total virtual-time cost (each detection
	// charges detectTimeout to the observer's clock).
	Detections int64
	DetectTime float64
	// Path is the critical path of the run's last section when
	// Config.CriticalPath is set: Spans that tile [0, Time] in order.
	Path []Span
	// LinkDetections counts first-time down-resource observations
	// across (rank, resource) pairs; LinkDetectTime is their total
	// virtual-time cost.
	LinkDetections int64
	LinkDetectTime float64
	// Event-engine telemetry, exact and identical run to run; zero on
	// threaded and chaos. Events counts rank
	// resumptions popped off the queue, Parks the times a rank gave up
	// the execution to wait (Parks/Msgs() is what a cheaper park is
	// worth), PeakQueue the deepest the event queue got.
	Events    int64
	Parks     int64
	PeakQueue int64
	// RoundScans counts the rank slots barrier and agreement completion
	// checks examined, on every driver: one pass per round, deaths aside.
	RoundScans int64
	// SnapshotBytes counts the bytes Gather copied — every send-side
	// payload copy there is — and PoolHits/PoolMisses the snapshots whose
	// buffer was recycled/allocated; every driver, zero in phantom mode.
	// Compose copies nothing and counts in none of the three: a
	// composite's bytes were counted by the Gather that filled each run.
	SnapshotBytes, PoolHits, PoolMisses int64
}

// MsgImbalance returns MaxRankMsgs divided by the mean per-rank
// message count (1 = perfectly balanced).
func (r *Report) MsgImbalance() float64 {
	if r.Msgs() == 0 {
		return 1
	}
	return float64(r.MaxRankMsgs) * float64(r.Ranks) / float64(r.Msgs())
}

// ByteImbalance returns MaxRankBytes divided by the mean per-rank
// byte count (1 = perfectly balanced).
func (r *Report) ByteImbalance() float64 {
	if r.Bytes() == 0 {
		return 1
	}
	return float64(r.MaxRankBytes) * float64(r.Ranks) / float64(r.Bytes())
}

// Msgs returns the total number of messages sent.
func (r *Report) Msgs() int64 {
	var t int64
	for _, v := range r.MsgsByDist {
		t += v
	}
	return t
}

// Bytes returns the total payload bytes sent.
func (r *Report) Bytes() int64 {
	var t int64
	for _, v := range r.BytesByDist {
		t += v
	}
	return t
}

// OffSocketMsgs returns messages that crossed a socket boundary.
func (r *Report) OffSocketMsgs() int64 {
	return r.MsgsByDist[topology.DistNode] +
		r.MsgsByDist[topology.DistGroup] +
		r.MsgsByDist[topology.DistGlobal]
}

// matchList is one (src, tag) match list: a slot of the mailbox's
// open-addressed table holding an intrusive FIFO threaded through
// Msg.next, so enqueue and take touch no memory but the slot and the
// message. The list is circular — tail.next is the head — which keeps
// the slot at three words. src1 is src+1; 0 marks a never-used slot,
// which makes the zero table empty.
type matchList struct {
	src1, tag int
	tail      *Msg // nil when drained
}

// mailbox holds one rank's pending messages, indexed by (src, tag) so
// a specific receive matches in O(1) instead of rescanning a single
// linear queue on every wakeup. The index is a linear-probed table
// hashed from uint64(src)<<32 | uint32(tag) and compared on the exact
// pair. Wildcard (AnySource/AnyTag) receives scan the table and take
// the earliest enqueue stamp, which reproduces single-queue FIFO
// selection exactly — independent of slot order. Drained lists keep
// their slot (the key population is bounded by the tag registry), so
// there are no deletions and a busy key reaches a steady state with no
// table churn at all.
type mailbox struct {
	mu    hostLock
	cond  *sync.Cond
	table []matchList // len is 0 or a power of two
	keys  int         // used slots
	count int         // queued messages across all lists
	enq   uint64      // enqueue stamp source for Msg.seq and slotMsg.seq
	// The direct-mapped front (DESIGN.md §9): slots[i] is for the message
	// of the i-th receive the rank posts under the numbering numb, filed
	// by a send that was told i; inSlots of them are occupied.
	slots   []slotMsg
	numb    *int32
	inSlots int
	// waiter marks a rank parked in recvErr; wSrc, wTag and wHint are
	// the posted receive while waiter is set, for the wait-for-graph
	// detector and the blocked summary; wVT is the rank's virtual
	// clock at post time (readable without touching the parked
	// goroutine's Proc).
	waiter     bool
	wSrc, wTag int
	wHint      hint
	wVT        float64
}

// slotMsg is a slot's resident: what a receive returns and the enqueue
// stamp, 0 in a free slot. The payload is pooled's first size bytes, or pooled.
type slotMsg struct {
	src, tag        int32
	size            int
	depart, arrival float64
	seq             uint64
	meta            any
	pooled          *pbuf
}

// hint addresses slot `slot` of the n a rank has under the numbering
// whose receive counts start at *numb (Proc.Slots); slot < 0 is none.
type hint struct {
	slot, n int
	numb    *int32
}

// fileLocked files *m: in slots[h.slot] when hinted, else — or when the
// slot cannot take it — in a pooled container on its (src, tag) list.
// An idle front adopts the sender's numbering. The slot must be free (a
// sender a pass ahead finds its last message there) and the lists
// drained: every slot resident is then older than every listed message,
// and (src, tag) FIFO order needs no stamp comparison.
func (b *mailbox) fileLocked(m *Msg, h hint) {
	if h.slot >= 0 && (b.numb == h.numb || b.inSlots == 0) && int(int32(m.Tag)) == m.Tag && (m.Data == nil || m.pooled != nil) {
		if b.numb != h.numb && h.n > len(b.slots) {
			b.slots = make([]slotMsg, h.n) // a rank's slots, once, at its plan's receive count
		}
		b.numb = h.numb
		if e := &b.slots[h.slot]; b.count == 0 && e.seq == 0 {
			b.enq++
			b.inSlots++
			*e = slotMsg{int32(m.Src), int32(m.Tag), m.Size, m.depart, m.arrival, b.enq, m.Meta, m.pooled}
			return
		}
	}
	c := msgPool.Get().(*Msg)
	*c = *m
	b.enqueueLocked(c)
}

// frontLocked returns the slot resident a receive of (src, tag) takes,
// nil when it must look in the lists. Under the front's numbering a
// channel has one slot, which a hinted receive reads; any other receive
// scans for the earliest stamp, as wildcards do across lists.
func (b *mailbox) frontLocked(src, tag int, h hint) *slotMsg {
	if b.inSlots == 0 {
		return nil
	}
	if h.slot >= 0 && h.numb == b.numb {
		if e := &b.slots[h.slot]; e.seq != 0 {
			return e
		}
		return nil
	}
	var best *slotMsg
	for i := range b.slots {
		e := &b.slots[i]
		if e.seq == 0 || (src != AnySource && int(e.src) != src) || (tag != AnyTag && int(e.tag) != tag) {
			continue
		}
		if best == nil || e.seq < best.seq {
			best = e
		}
	}
	return best
}

// slot returns the table slot for exact key (src, tag): its list if
// the key is present, else the free slot where it would go. The table
// must be non-empty; it is never full.
func (b *mailbox) slot(src, tag int) *matchList {
	mask := uint64(len(b.table) - 1)
	// Fibonacci hash of the packed key; the top bits are the well-mixed ones.
	i := ((uint64(src)<<32 | uint64(uint32(tag))) * 0x9e3779b97f4a7c15) >> 32 & mask
	for {
		l := &b.table[i]
		if l.src1 == 0 || (l.src1 == src+1 && l.tag == tag) {
			return l
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table (from 8 slots) and re-places the used lists.
func (b *mailbox) grow() {
	old := b.table
	b.table = make([]matchList, max(8, 2*len(old))) // amortized growth, bounded by the live (src, tag) key population
	for i := range old {
		if l := &old[i]; l.src1 != 0 {
			*b.slot(l.src1-1, l.tag) = *l
		}
	}
}

// enqueueLocked stamps m and appends it to its match list.
func (b *mailbox) enqueueLocked(m *Msg) {
	b.enq++
	m.seq = b.enq
	if 4*(b.keys+1) > 3*len(b.table) {
		b.grow()
	}
	l := b.slot(m.Src, m.Tag)
	if l.src1 == 0 {
		l.src1, l.tag = m.Src+1, m.Tag
		b.keys++
	}
	if l.tail == nil {
		m.next = m
	} else {
		m.next, l.tail.next = l.tail.next, m
	}
	l.tail = m
	b.count++
}

// findLocked returns the non-empty match list a receive of (src, tag)
// takes from — for wildcards the one whose head was enqueued first —
// or nil when nothing queued matches.
func (b *mailbox) findLocked(src, tag int) *matchList {
	if b.count == 0 {
		return nil
	}
	if src != AnySource && tag != AnyTag {
		if l := b.slot(src, tag); l.tail != nil {
			return l
		}
		return nil
	}
	var best *matchList
	for i := range b.table {
		l := &b.table[i]
		if l.tail == nil || (src != AnySource && l.src1 != src+1) || (tag != AnyTag && l.tag != tag) {
			continue
		}
		if best == nil || l.tail.next.seq < best.tail.next.seq {
			best = l
		}
	}
	return best
}

// takeLocked removes the earliest-enqueued message matching (src, tag)
// into *out and reports whether there was one: a slot resident (older
// than anything listed, see fileLocked) or the head of a list, whose
// container goes back to msgPool.
func (b *mailbox) takeLocked(src, tag int, h hint, out *Msg) bool {
	if e := b.frontLocked(src, tag, h); e != nil {
		*out = Msg{Src: int(e.src), Tag: int(e.tag), Size: e.size, Meta: e.meta, depart: e.depart, arrival: e.arrival, pooled: e.pooled, seq: e.seq}
		if e.pooled != nil && e.pooled.b != nil { // not a composite
			out.Data = e.pooled.b[:e.size:e.size]
		}
		*e = slotMsg{} // a free slot keeps no payload alive
		b.inSlots--
		return true
	}
	l := b.findLocked(src, tag)
	if l == nil {
		return false
	}
	m := l.tail.next
	if m == l.tail {
		l.tail = nil
	} else {
		l.tail.next = m.next
	}
	m.next = nil
	b.count--
	*out = *m
	*m = Msg{}
	msgPool.Put(m)
	return true
}

// matchesLocked reports whether a message matching (src, tag) is
// queued, in a slot or a list, without removing it.
func (b *mailbox) matchesLocked(src, tag int, h hint) bool {
	return b.frontLocked(src, tag, h) != nil || b.findLocked(src, tag) != nil
}

// Runtime is the shared state of one execution.
type Runtime struct {
	cfg      Config
	n        int
	model    *netmodel.Model
	boxes    []mailbox
	procs    []*Proc
	aborted  atomic.Bool
	failErr  atomic.Pointer[error]
	failedCh chan struct{}
	// drv executes the ranks; chaos and ev are drv's concrete value
	// when it is that driver (nil otherwise), for the per-message
	// paths that must not pay an interface call, and host is the
	// coroutine host either serial driver embeds (nil when threaded).
	drv   driver
	chaos *chaosRT
	ev    *eventRT
	host  *coHost
	hints bool // slot hints are honoured: no message can outlive its pass

	// fail-stop state: deadMask marks permanently failed ranks, nDead
	// counts them, revoked is the ULFM-style revocation epoch.
	deadMask []atomic.Bool
	nDead    atomic.Int64
	revoked  atomic.Bool

	// netMu serialises the threaded driver's calls into model.
	netMu hostLock

	// barrier state; bArr marks which ranks have arrived in the
	// pending generation (a generation completes when every rank has
	// arrived or died).
	bmu        hostLock
	bcond      *sync.Cond
	bgen       int
	bcnt       int
	bArr       []bool
	roundScans int64 // Report.RoundScans, guarded by bmu

	// collective-time reduction scratch
	reduceVals []float64
	reduceRes  float64

	// fault-tolerant agreement round state (Agree/Shrink), guarded by
	// bmu.
	ftArr   []bool
	ftCnt   int
	ftGen   int
	ftOK    bool
	ftClear bool
	ftVals  []float64
	ftRes   bool
	ftMax   float64
	ftAlive []int

	// threaded-driver watchdog state
	blocked  atomic.Int64
	finished atomic.Int64
	progress atomic.Uint64
}

// Proc is the per-rank handle passed to the rank body. All methods must
// be called only from that rank's goroutine.
type Proc struct {
	rt   *Runtime
	rank int
	vt   float64
	// slow multiplies the rank's local work, overheads and detections:
	// a chaos slow rank's factor, 1 everywhere else.
	slow float64
	// this rank's share of Report.SnapshotBytes/PoolHits/PoolMisses
	snapBytes, poolHits, poolMisses int64

	// fail-stop state: ops counts blocking-operation entries (the kill
	// trigger), kills are this rank's scheduled crashes, dead is set
	// once a kill fired. detected memoises per-peer failure detection;
	// detectTime/detections aggregate its cost for the Report. ftEpoch
	// numbers fault-tolerant collective invocations for tag isolation.
	ops        int64
	kills      []Kill
	dead       bool
	detected   map[int]bool
	detectTime float64
	detections int64
	ftEpoch    int

	// link-fault detection state, memoised per resource like detected
	// (see linkfail.go).
	linkDetected   map[netmodel.Resource]bool
	linkDetectTime float64
	linkDetections int64

	recvs []int32 // the numbering this rank's slot hints follow (Slots)

	// edges is this rank's critical-path record since the last
	// SyncResetTime; nil when Config.CriticalPath is off.
	edges []Span

	// cycleScratch is this rank's wait-for-graph chase buffer, reused
	// across posted receives so the block-time cycle probe is
	// allocation-free.
	cycleScratch []WaitEdge

	// A stepped rank's suspended state (see Stepper): suspended while it
	// sits in a wait it published and returned from, the barrier
	// generation that wait is for, how far a SyncResetTimeStep got.
	suspended bool
	syncPhase uint8
	roundGen  int
}

// Stepper is a rank body the serial loops can resume without a stack:
// Step runs the rank until it finishes (true) or a Step-form wait —
// RecvStep, SyncResetTimeStep, CollectiveTimeStep — reports that it
// suspended; Step then returns false at once, and the next Step repeats
// that same call, which resumes the wait. A blocking form that has to
// park (Recv, Barrier, Agree, Yield …) is a usage error there.
type Stepper interface {
	Step(p *Proc) (done bool)
}

// Run executes body on cfg.Ranks ranks (on the configured engine) and
// returns the aggregate report. It returns an error if any rank
// panicked or a deadlock was detected.
func Run(cfg Config, body func(*Proc)) (*Report, error) {
	return launch(cfg, body, nil)
}

// RunSteppers is Run for ranks written as Steppers; mk builds rank p's,
// on the calling goroutine, before any rank runs. The serial drivers —
// the event loop and the chaos scheduler — step them from their loops,
// no coroutine per rank; on the threaded driver a Step-form wait
// blocks, so the rank's goroutine steps until done. Same runtime, same
// Report.
func RunSteppers(cfg Config, mk func(*Proc) Stepper) (*Report, error) {
	return launch(cfg, nil, mk)
}

func launch(cfg Config, body func(*Proc), mk func(*Proc) Stepper) (*Report, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Ranks
	if n == 0 {
		n = cfg.Cluster.Ranks()
	}
	if n < 1 || n > cfg.Cluster.Ranks() {
		return nil, fmt.Errorf("mpirt: Ranks %d out of range 1..%d", n, cfg.Cluster.Ranks())
	}
	params := cfg.Params
	if params == (netmodel.Params{}) {
		params = netmodel.NiagaraParams()
	}
	model, err := netmodel.New(cfg.Cluster, params)
	if err != nil {
		return nil, err
	}
	eng, err := ResolveEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	serial := cfg.Chaos != nil || eng == EngineEvent
	if cfg.WallLimit == 0 {
		cfg.WallLimit = 120 * time.Second
	}
	for _, k := range cfg.Kills {
		if k.Rank < 0 || k.Rank >= n {
			return nil, fmt.Errorf("mpirt: kill rank %d out of range 0..%d", k.Rank, n-1)
		}
	}
	if err := model.InjectFaults(cfg.LinkFaults); err != nil {
		return nil, err
	}

	rt := &Runtime{
		cfg:        cfg,
		n:          n,
		model:      model,
		boxes:      make([]mailbox, n),
		procs:      make([]*Proc, n),
		reduceVals: make([]float64, n),
		deadMask:   make([]atomic.Bool, n),
		bArr:       make([]bool, n),
		ftArr:      make([]bool, n),
		ftVals:     make([]float64, n),
		ftOK:       true,
		failedCh:   make(chan struct{}),
		hints:      cfg.Chaos == nil && len(cfg.Kills) == 0 && !model.HasLinkFaults(),
		netMu:      hostLock{serial: serial},
		bmu:        hostLock{serial: serial},
	}
	rt.bcond = sync.NewCond(&rt.bmu)
	procs := make([]Proc, n)
	for r := 0; r < n; r++ {
		rt.boxes[r].mu.serial = serial
		p := &procs[r]
		p.rt, p.rank, p.slow = rt, r, 1
		if cfg.CriticalPath {
			p.edges = []Span{}
		}
		for _, k := range cfg.Kills {
			if k.Rank == r {
				p.kills = append(p.kills, k)
			}
		}
		rt.procs[r] = p
	}
	switch {
	case cfg.Chaos != nil:
		rt.chaos = newChaosRT(rt, *cfg.Chaos)
		rt.drv, rt.host = rt.chaos, &rt.chaos.coHost
	case eng == EngineEvent:
		rt.ev = newEventRT(rt)
		rt.drv, rt.host = rt.ev, &rt.ev.coHost
	default:
		rt.drv = threadedRT{rt}
		for i := range rt.boxes {
			rt.boxes[i].cond = sync.NewCond(&rt.boxes[i].mu)
		}
	}

	// Wall-clock reporting only: Report.Wall measures host execution
	// time for the operator's benefit and never feeds the virtual
	// clocks, message ordering, or any modelled result.
	start := time.Now() //lint:wallclock

	if mk != nil {
		steps := make([]Stepper, n)
		for r, p := range rt.procs {
			steps[r] = mk(p)
		}
		if rt.host != nil {
			rt.host.steps = steps
		}
		body = func(p *Proc) { // the threaded driver's rank
			for s := steps[p.rank]; !s.Step(p); {
			}
		}
	}

	limit := time.AfterFunc(cfg.WallLimit, func() { //lint:wallclock — harness safety net, outside the model
		rt.fail(fmt.Errorf("mpirt: wall-clock limit %v exceeded", cfg.WallLimit))
	})
	rt.drv.run(body)
	limit.Stop()

	if errp := rt.failErr.Load(); errp != nil {
		return nil, *errp
	}
	return rt.buildReport(start), nil
}

// runRanks runs body on one goroutine per rank — the threaded driver —
// and waits for them all. A rank that leaves by runtime.Goexit fails
// the run, as on the coroutine host (coHost.rankMain).
func (rt *Runtime) runRanks(body func(*Proc)) {
	var wg sync.WaitGroup
	wg.Add(rt.n)
	for _, p := range rt.procs {
		go func() {
			defer wg.Done()
			rec := any("rank body called runtime.Goexit")
			defer func() {
				if r := recover(); r != nil {
					rec = r
				}
				rt.rankRecover(p, rec)
			}()
			body(p)
			rec = nil
		}()
	}
	rt.awaitRanks(&wg)
}

// rankRecover classifies a rank's exit (rec is its recover() value,
// nil for a clean return) and performs the shared bookkeeping. Every
// driver routes every rank exit through here so the error surface is
// identical.
func (rt *Runtime) rankRecover(p *Proc, rec any) {
	rt.finished.Add(1)
	if rec != nil {
		err := asErr(rec)
		switch {
		case errors.Is(err, errAborted):
			// The run already failed elsewhere.
		case errors.Is(err, errKilled):
			// Injected fail-stop crash: a permanent rank
			// exit, not a run failure. Peers observe it via
			// the ULFM error surface.
		case isFailureError(err):
			// A typed failure escaped the rank body without
			// a recovery layer absorbing it: abort the run
			// with the typed error, no stack noise.
			rt.fail(fmt.Errorf("mpirt: rank %d aborted: %w", p.rank, err))
		default:
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			rt.fail(fmt.Errorf("mpirt: rank %d panicked: %v\n%s", p.rank, rec, buf))
		}
	}
	// A finished rank may leave peers blocked on it; kick
	// the watchdog's progress view so it re-evaluates.
	rt.progress.Add(1)
}

// awaitRanks waits for wg — the threaded engine's rank goroutines, or
// a serial driver's loop goroutine — with a short grace period on
// failure before abandoning ranks stuck in host-level blocking (they exit at their next runtime call; the shared state
// stays valid).
func (rt *Runtime) awaitRanks(wg *sync.WaitGroup) {
	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()
	select {
	case <-allDone:
	case <-rt.failedCh:
		select {
		case <-allDone:
		case <-time.After(200 * time.Millisecond): //lint:wallclock — host-level unwind grace period
		}
	}
}

// buildReport assembles the Report from a completed (non-failed) run.
func (rt *Runtime) buildReport(start time.Time) *Report {
	rep := &Report{Wall: time.Since(start), Ranks: rt.n} //lint:wallclock — reporting only
	rep.MsgsByDist, rep.BytesByDist = rt.model.DistTraffic()
	rep.DeadRanks = rt.deadRanksOf()
	rep.RoundScans = rt.roundScans
	if ev := rt.ev; ev != nil {
		rep.Events, rep.Parks, rep.PeakQueue = ev.events, ev.parks, ev.peakQueue
	}
	rep.ResMsgs, rep.ResBytes = rt.model.Traffic()
	rep.MaxRankMsgs = slices.Max(rep.ResMsgs[:rt.n]) // rank r's port is id r
	rep.MaxRankBytes = slices.Max(rep.ResBytes[:rt.n])
	for _, p := range rt.procs {
		t := math.Max(p.vt, rt.model.PortDrain(p.rank))
		if t > rep.Time {
			rep.Time = t
		}
		rep.Detections += p.detections
		rep.DetectTime += p.detectTime
		rep.LinkDetections += p.linkDetections
		rep.LinkDetectTime += p.linkDetectTime
		rep.SnapshotBytes += p.snapBytes
		rep.PoolHits += p.poolHits
		rep.PoolMisses += p.poolMisses
	}
	if rt.cfg.CriticalPath {
		rep.Path = rt.walk(rep.Time)
	}
	return rep
}

func asErr(rec any) error {
	if e, ok := rec.(error); ok {
		return e
	}
	return fmt.Errorf("%v", rec)
}

// isFailureError reports whether err is one of the typed failure /
// usage errors whose escape from a rank body should abort the run with
// the error itself rather than a panic stack.
func isFailureError(err error) bool {
	var rf *RankFailedError
	var cr *CommRevokedError
	var ue *UsageError
	return errors.As(err, &rf) || errors.As(err, &cr) || errors.As(err, &ue) ||
		errors.Is(err, ErrLinkFailed)
}

func (rt *Runtime) fail(err error) {
	if rt.aborted.CompareAndSwap(false, true) {
		rt.failErr.Store(&err)
		close(rt.failedCh)
	}
	// Wake every goroutine parked on a condition so it observes the
	// abort (the serial drivers unwind their parked ranks themselves).
	rt.broadcastBoxes()
	rt.bmu.Lock()
	rt.bcond.Broadcast()
	rt.bmu.Unlock()
}

func (rt *Runtime) checkAborted() {
	if rt.aborted.Load() {
		panic(errAborted)
	}
}

// blockedSummary describes, for the deadlock error, what every parked
// rank is waiting for: the pending operation kind, the peer rank and
// tag of posted receives, and whether that peer is dead.
func (rt *Runtime) blockedSummary() string {
	var parts []string
	for r := range rt.boxes {
		b := &rt.boxes[r]
		b.mu.Lock()
		if b.waiter {
			src, dead := "any", ""
			if b.wSrc != AnySource {
				src = fmt.Sprintf("%d", b.wSrc)
				if rt.deadMask[b.wSrc].Load() {
					dead = " [peer dead]"
				}
			}
			tag := "any"
			if b.wTag != AnyTag {
				tag = fmt.Sprintf("%d", b.wTag)
			}
			parts = append(parts, fmt.Sprintf("rank %d: recv src=%s tag=%s%s", r, src, tag, dead))
		}
		b.mu.Unlock()
	}
	rt.bmu.Lock()
	for r := 0; r < rt.n; r++ {
		if rt.deadMask[r].Load() {
			continue
		}
		if rt.bArr[r] {
			parts = append(parts, fmt.Sprintf("rank %d: barrier", r))
		}
		if rt.ftArr[r] {
			parts = append(parts, fmt.Sprintf("rank %d: agree/shrink", r))
		}
	}
	rt.bmu.Unlock()
	if dead := rt.deadRanksOf(); len(dead) > 0 {
		parts = append(parts, fmt.Sprintf("dead ranks %v", dead))
	}
	if len(parts) == 0 {
		parts = append(parts, "blocked ranks are between states")
	}
	if len(parts) > 10 {
		parts = append(parts[:10], "…")
	}
	if cs := rt.chaos; cs != nil {
		parts = append(parts, fmt.Sprintf("%d in flight", cs.inflightN))
	}
	return strings.Join(parts, "; ")
}

// Rank returns this rank's id in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the communicator size.
func (p *Proc) Size() int { return p.rt.n }

// Cluster returns the machine shape.
func (p *Proc) Cluster() topology.Cluster { return p.rt.cfg.Cluster }

// Model returns the shared cost model, to read: only the runtime
// charges it.
func (p *Proc) Model() *netmodel.Model { return p.rt.model }

// Phantom reports whether payloads are size-only.
func (p *Proc) Phantom() bool { return p.rt.cfg.Phantom }

// VT returns this rank's current virtual time in seconds.
func (p *Proc) VT() float64 { return p.vt }

// AdvanceVT adds d seconds of local work (compute, packing) to the
// rank's virtual clock. Chaos-mode slow ranks pay a multiplier.
func (p *Proc) AdvanceVT(d float64) {
	if d > 0 {
		p.vt += float64(d * p.slow)
	}
}

// ChargeCopy advances the clock by the modelled local-copy time for n
// bytes.
func (p *Proc) ChargeCopy(n int) { p.AdvanceVT(p.rt.model.CopyTime(n)) }

// Yield cooperatively lets other ranks run without blocking on a
// message, advancing virtual time, or counting as a blocking
// operation. Polling loops (Probe, Failed) only make
// progress on the threaded engine by accident of goroutine
// preemption; on the serial drivers (event, chaos) the poller holds
// the execution until it yields, so any poll loop must call Yield.
func (p *Proc) Yield() {
	p.rt.checkAborted()
	p.rt.drv.yield(p)
}

// Snapshot is an eager payload: bytes gathered once into a pool buffer,
// immutable from then on, held once by this handle and once by every
// message it is sent in (see pool.go). The zero Snapshot has no bytes.
type Snapshot struct {
	data []byte
	pb   *pbuf
}

// Release gives up the handle's hold; messages already sent keep
// theirs. On the zero Snapshot, or a second time, it is a no-op.
func (s *Snapshot) Release() {
	releasePayload(s.pb)
	*s = Snapshot{}
}

// Whole returns the snapshot as one run, unless it is a composite.
func (s *Snapshot) Whole() Piece { return Piece{s.data, s.pb} }

// Runs returns a composite payload's byte runs, in order, or nil for a
// plain one, which Whole is. Read-only while m is held.
func (m *Msg) Runs() []Piece {
	if m.pooled == nil {
		return nil
	}
	return m.pooled.runs // nil for a plain buffer
}

// Whole returns a plain payload as one run (see Runs).
func (m *Msg) Whole() Piece { return Piece{m.Data, m.pooled} }

// Piece is one run of snapshot bytes and the buffer Gather filled with
// them. It holds nothing: its source must stay held while it is read or
// composed. Only Whole and Runs make one: it never names caller memory.
type Piece struct {
	data []byte
	pb   *pbuf
}

// Bytes returns the run's bytes. Read-only.
func (c Piece) Bytes() []byte { return c.data }

// Slice returns bytes [lo, hi) of the run, as a run of the same buffer.
func (c Piece) Slice(lo, hi int) Piece { return Piece{c.data[lo:hi:hi], c.pb} }

// Gather copies src into one snapshot: the eager protocol's copy, the
// only one on the send side. The caller's memory is never borrowed — it
// may be overwritten the moment Gather returns, as MPI guarantees of a
// send buffer. Phantom mode moves no bytes.
func (p *Proc) Gather(src []byte) Snapshot {
	if p.rt.cfg.Phantom {
		return Snapshot{}
	}
	pb, data := allocPayload(len(src))
	if pb != nil && pb.recycled {
		p.poolHits++
	} else if len(src) > 0 {
		p.poolMisses++
	}
	p.snapBytes += int64(copy(data, src))
	return Snapshot{data: data, pb: pb}
}

// Compose makes one snapshot of runs, in order, copying nothing: a
// composite holding each run's buffer (pool.go), or, for one run that is
// a whole snapshot, that snapshot. Phantom mode returns the zero Snapshot.
func (p *Proc) Compose(runs []Piece) Snapshot {
	if p.rt.cfg.Phantom {
		return Snapshot{}
	}
	if r := runs; len(r) == 1 && r[0].pb != nil && len(r[0].data) == r[0].pb.n {
		r[0].pb.refs.Add(1)
		return Snapshot{data: r[0].data, pb: r[0].pb}
	}
	pb, _ := payloadPools[composite].Get().(*pbuf)
	if pb == nil {
		pb = &pbuf{class: composite}
	}
	pb.n = 0
	for _, r := range runs {
		if r.pb != nil {
			r.pb.refs.Add(1)
		}
		pb.n += len(r.data)
	}
	pb.runs = append(pb.runs[:0], runs...) // grows to the most runs this composite has carried
	pb.refs.Store(1)
	return Snapshot{pb: pb}
}

// SendSnapshot sends s — size bytes, or size-only if s is zero — to dst:
// the general send, of which Send is the one-part, one-destination
// case. One snapshot may go to any number of destinations, and its
// handle may be Released any time after. Sends are eager: the call
// returns once the message is enqueued at dst; the cost model decides
// when it becomes receivable. Failures panic with the typed error.
// slot ≥ 0 hints (−1: none) that the message completes the slot-th
// receive dst posts under this rank's numbering (Slots), whose mailbox
// slot it then goes to if it can. Matching is by (src, tag) either way.
func (p *Proc) SendSnapshot(dst, tag, size int, s Snapshot, meta any, slot int) {
	if err := p.sendErr(dst, tag, size, s, meta, slot); err != nil {
		panic(err)
	}
}

// Slots declares the numbering this rank's slot hints follow from now
// on: rank r posts recvs[r] receives under it, a (src, tag) channel has
// one slot, and the array — the same for every rank — is its identity.
func (p *Proc) Slots(recvs []int32) { p.recvs = recvs[:p.rt.n] }

// hint resolves a slot argument about rank r's mailbox: dropped where
// hints are off, a usage error beyond the receives r has declared.
func (p *Proc) hint(slot, r int, op string) hint {
	if slot < 0 || !p.rt.hints {
		return hint{slot: -1}
	}
	if p.recvs == nil || slot >= int(p.recvs[r]) {
		panic(&UsageError{Rank: p.rank, Op: op, Msg: fmt.Sprintf("slot %d beyond the receives declared for rank %d", slot, r)})
	}
	return hint{slot, int(p.recvs[r]), &p.recvs[0]}
}

// Send snapshots data (see Gather) and sends it to dst. data may be nil
// (phantom mode or metadata-only protocol signals). Failure conditions
// panic with the typed failure error (use SendErr to handle them).
func (p *Proc) Send(dst, tag, size int, data []byte, meta any) {
	if err := p.SendErr(dst, tag, size, data, meta); err != nil {
		panic(err)
	}
}

// sendErr implements every send: s is the payload snapshot, zero for a
// size-only message. Usage errors panic (they abort the run); failure
// conditions are returned.
func (p *Proc) sendErr(dst, tag, size int, s Snapshot, meta any, slot int) error {
	p.enterOp()
	p.rt.checkAborted()
	if dst < 0 || dst >= p.rt.n {
		panic(&UsageError{Rank: p.rank, Op: "send",
			Msg: fmt.Sprintf("invalid destination rank %d", dst)})
	}
	if size < 0 {
		panic(&UsageError{Rank: p.rank, Op: "send",
			Msg: fmt.Sprintf("negative size %d", size)})
	}
	n := len(s.data)
	if s.pb != nil {
		n = s.pb.n // a composite has no data: Σ len(runs)
	}
	if (s.data != nil || s.pb != nil) && n != size {
		panic(&UsageError{Rank: p.rank, Op: "send",
			Msg: fmt.Sprintf("size %d != len(data) %d", size, n)})
	}
	h := p.hint(slot, dst, "send")
	if p.rt.revoked.Load() {
		return &CommRevokedError{}
	}
	if p.rt.deadMask[dst].Load() {
		// An eager send to a dead peer fails fast: the modelled ack
		// never comes, so the sender pays the detection timeout once.
		p.chargeDetect(dst)
		return &RankFailedError{Rank: dst}
	}
	if p.rt.model.HasLinkFaults() {
		// A send across a down link fails fast with the typed error
		// instead of injecting a message that can never be delivered —
		// on the event engine, an undeliverable message must not leave
		// the ladder queue live forever.
		if err := p.linkSendBlocked(dst); err != nil {
			return err
		}
	}
	if s.pb != nil {
		s.pb.refs.Add(1) // the message's hold, let go by Msg.Release
	}

	var backoff, spike float64
	if cs := p.rt.chaos; cs != nil {
		// The sender is the one rank running, so these RNG draws are
		// part of the deterministic serial stream.
		backoff, spike = cs.chaosSendFaults(p.slow)
	}
	p.vt += backoff + float64(p.slow*p.rt.model.SendOverhead())
	p.rt.netMu.Lock()
	arrival := p.rt.model.Transfer(p.rank, dst, size, p.vt) + spike
	p.rt.netMu.Unlock()

	if cs := p.rt.chaos; cs != nil {
		// Chaos mode: the message enters the scheduler's in-flight pool
		// (possibly duplicated) instead of the destination mailbox; a
		// later delivery decision releases it. The container is not
		// recycled — duplicated in-flight copies share this one *Msg.
		m := &Msg{Src: p.rank, Tag: tag, Size: size, Data: s.data, Meta: meta, depart: p.vt, arrival: arrival, pooled: s.pb} // chaos-mode container, deliberately unpooled
		cs.chaosEnqueue(p.rank, dst, m)
		return nil
	}
	m := Msg{Src: p.rank, Tag: tag, Size: size, Data: s.data, Meta: meta, depart: p.vt, arrival: arrival, pooled: s.pb}
	box := &p.rt.boxes[dst]
	box.mu.Lock()
	box.fileLocked(&m, h)
	if ev := p.rt.ev; ev != nil {
		// Event engine: wake the destination only if it is parked on a
		// matching receive, with the wake keyed to the modelled arrival
		// so resumption order follows virtual time.
		if box.waiter && (box.wSrc == AnySource || box.wSrc == p.rank) &&
			(box.wTag == AnyTag || box.wTag == tag) {
			ev.schedule(dst, arrival)
		}
	} else {
		box.cond.Broadcast()
		p.rt.progress.Add(1) // the threaded watchdog's view
	}
	box.mu.Unlock()
	return nil
}

// Recv blocks until a message matching (src, tag) is available, charges
// the receive to the virtual clock, and returns it. Matching is FIFO
// with respect to each sender. Receiving from a dead peer (with no
// matching message left) or on a revoked communicator panics with the
// typed failure error; use RecvErr to handle it.
func (p *Proc) Recv(src, tag int) Msg {
	m, err := p.recvErr(src, tag)
	if err != nil {
		panic(err)
	}
	return m
}

// RecvStep is Recv for a Stepper: where Recv would park, a stepped rank
// gets ok=false with the wait published, and its next call — same
// arguments — resumes after that park. Anywhere else it is Recv. slot ≥ 0
// hints (−1: none) that this is the slot-th receive the rank posts under
// its numbering (Slots): where a send hinted the same put its message.
func (p *Proc) RecvStep(src, tag, slot int) (m Msg, ok bool) {
	ok, err := p.recv(src, tag, slot, true, &m)
	if err != nil {
		panic(err)
	}
	return m, ok
}

// recvErr is the blocking receive under Recv and RecvErr.
func (p *Proc) recvErr(src, tag int) (m Msg, err error) {
	_, err = p.recv(src, tag, -1, false, &m)
	return m, err
}

// recv implements every receive, on every driver. Under chaos the
// mailbox holds at most the one message a delivery decision filed for
// the rank it then resumes; matching happens in the scheduler.
// Messages already queued from a now-dead sender remain deliverable
// (eager sends completed before the crash); once none match, a posted
// receive that can never complete fails with its typed error
// (recvBlocked) rather than waiting forever. step is the caller's
// promise to call again: a stepped rank then suspends (ok=false) where
// it would park, and the call that finds p.suspended set resumes past
// that park — one operation, one cycle chase, however often resumed.
// The message lands in *out; slot is RecvStep's hint.
func (p *Proc) recv(src, tag, slot int, step bool, out *Msg) (ok bool, err error) {
	rt := p.rt
	resumed := p.suspended
	p.suspended = false
	if !resumed {
		p.enterOp()
	}
	rt.checkAborted()
	p.checkSource(src)
	if src == AnySource || tag == AnyTag {
		slot = -1 // a wildcard has no slot of its own
	}
	h := p.hint(slot, p.rank, "recv")
	box := &rt.boxes[p.rank]
	// checked guards the wait-for-graph probe: one cycle chase per
	// posted receive, run after this rank publishes its wait so that
	// concurrent probes on other ranks can observe the closing edge.
	checked := resumed
	box.mu.Lock()
	box.waiter = false // set only by a suspended receive resuming here
	for {
		// Take the message: a hinted receive reads its slot; otherwise
		// indexed matching — a specific (src, tag) receive is one table
		// lookup, and a wakeup re-checks only that list instead of
		// rescanning a whole queue from zero.
		if box.takeLocked(src, tag, h, out) {
			box.waiter = false
			box.mu.Unlock()
			if h.slot >= 0 && (out.Src != src || out.Tag != tag) {
				panic(&UsageError{Rank: p.rank, Op: "recv", Msg: fmt.Sprintf("slot %d held a message from %d tag %d", h.slot, out.Src, out.Tag)})
			}
			p.lift(out)
			p.vt += float64(p.slow * rt.model.RecvOverhead())
			return true, nil
		}
		if err := p.recvBlocked(src, tag); err != nil {
			box.waiter = false
			box.mu.Unlock()
			if err == errAborted {
				panic(err)
			}
			return true, err
		}
		box.waiter = true
		box.wSrc, box.wTag, box.wHint = src, tag, h
		box.wVT = p.vt
		if !checked && src != AnySource {
			// The wait is now published; chase the wait-for chain with no
			// box lock held, then re-scan the queue — on the threaded
			// driver a delivery may have landed during the unlocked
			// window. waiter stays set across the re-scan so a concurrent
			// chase on another rank still sees this edge; whichever rank
			// publishes last proves the cycle.
			checked = true
			box.mu.Unlock()
			rt.checkCycle(p)
			box.mu.Lock()
			continue
		}
		if step && p.suspend(stRecvWait) {
			box.mu.Unlock()
			return false, nil
		}
		rt.drv.park(p, stRecvWait, box.cond)
		box.waiter = false
	}
}

// suspend is a stepped rank's park: its published wait stays published,
// the loop gets switchOut's bookkeeping, and the caller returns "not
// yet" instead of switching stacks. False, with nothing done, for a rank
// no serial loop is stepping: that one parks.
func (p *Proc) suspend(st waitState) bool {
	h := p.rt.host
	if h == nil || h.steps == nil {
		return false
	}
	p.suspended = true
	h.state[p.rank] = st
	h.parks++
	return true
}

// checkSource panics with the usage error for a receive posted on a
// source that is neither AnySource nor a rank.
func (p *Proc) checkSource(src int) {
	if src != AnySource && (src < 0 || src >= p.rt.n) {
		panic(&UsageError{Rank: p.rank, Op: "recv",
			Msg: fmt.Sprintf("invalid source rank %d", src)})
	}
}

// recvBlocked is the receive error ladder: why a receive posted on (src,
// tag) with nothing matching queued must not park. In order — the run
// aborted (errAborted, for the caller to panic with), the communicator
// revoked, then under chaos its own rung (chaosRT.recvBlocked: a death
// is a seeded decision there), else the source dead, every peer of an
// AnySource receive dead, the src→self path down; nil when waiting is
// sound. Failure detections are charged to the clock here. It runs with
// the rank's mailbox locked, at post time and after every wake, so the
// serial drivers evaluate it at deterministic points.
func (p *Proc) recvBlocked(src, tag int) error {
	rt := p.rt
	switch {
	case rt.aborted.Load():
		return errAborted
	case rt.revoked.Load():
		return &CommRevokedError{}
	case rt.chaos != nil:
		return rt.chaos.recvBlocked(p, src, tag)
	case src == AnySource:
		if d := rt.firstDeadPeer(p.rank); d >= 0 {
			p.chargeDetect(d)
			return &RankFailedError{Rank: d}
		}
	case rt.deadMask[src].Load():
		p.chargeDetect(src)
		return &RankFailedError{Rank: src}
	case rt.model.HasLinkFaults():
		return p.linkRecvBlocked(src)
	}
	return nil
}

// Probe reports whether a message matching (src, tag) is currently
// queued, without receiving it and without advancing the clock. A dead
// peer with no queued message probes false — probing never blocks, so
// it needs no error path.
func (p *Proc) Probe(src, tag int) bool {
	p.enterOp()
	if cs := p.rt.chaos; cs != nil {
		return cs.deliverable(p.rank, src, tag)
	}
	box := &p.rt.boxes[p.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	return box.matchesLocked(src, tag, hint{slot: -1})
}

// Barrier synchronises all ranks. On release every rank's virtual clock
// advances to the global maximum plus a small synchronisation cost.
func (p *Proc) Barrier() {
	p.reduceMax(p.vt, false) // side effect: fills reduceVals and syncs
}

// SyncResetTime barriers, then zeroes every rank's virtual clock and
// the cost model's shared resources. Call before a timed section so
// measurements start from an idle network. On the event engine ranks
// arrive in (clock, rank) order, as from the loop's start, whatever ran
// before, and the loop's clock rewinds with theirs: every section that
// follows one is replayed exactly (DESIGN.md §10).
func (p *Proc) SyncResetTime() { p.syncResetTime(false) }

// SyncResetTimeStep is SyncResetTime for a Stepper (see RecvStep).
func (p *Proc) SyncResetTimeStep() bool { return p.syncResetTime(true) }

// syncPhase: 0 idle, then 1 or 2 in the first or second barrier.
func (p *Proc) syncResetTime(step bool) bool {
	if p.syncPhase == 0 {
		p.syncPhase = 1
		if ev := p.rt.ev; ev != nil && ev.requeue(p.rank, p.vt) {
			if step && p.suspend(stRunnable) {
				p.suspended = false // the wake resumes here, not in a wait
				return false
			}
			ev.switchOut(p, stRunnable)
		}
	}
	if p.syncPhase == 1 {
		if _, ok := p.reduceMax(0, step); !ok {
			return false
		}
		p.vt = 0
		p.edges = p.edges[:0]
		if p.rank == 0 {
			p.rt.netMu.Lock()
			p.rt.model.Reset()
			p.rt.netMu.Unlock()
		}
		p.syncPhase = 2
	}
	if _, ok := p.reduceMax(0, step); !ok {
		return false
	}
	p.syncPhase = 0
	return true
}

// CollectiveTime barriers and returns, identically on every rank, the
// completion time of the preceding section: the global maximum of
// virtual clocks and send-port drains.
func (p *Proc) CollectiveTime() float64 {
	t, _ := p.collectiveTime(false)
	return t
}

// CollectiveTimeStep is CollectiveTime for a Stepper (see RecvStep).
func (p *Proc) CollectiveTimeStep() (t float64, ok bool) { return p.collectiveTime(true) }

func (p *Proc) collectiveTime(step bool) (float64, bool) {
	p.rt.netMu.Lock()
	drain := p.rt.model.PortDrain(p.rank)
	p.rt.netMu.Unlock()
	return p.reduceMax(math.Max(p.vt, drain), step)
}

// reduceMax performs an allreduce(max) over one float64 per rank using
// the central barrier state. It also acts as a barrier. The rank's
// clock is advanced to the returned maximum (a barrier synchronises).
// The barrier is dead-tolerant: a generation completes once every rank
// has arrived or died, with the maximum taken over arrivals, so an
// injected crash cannot wedge survivors in a barrier. step is as in
// recv: a stepped rank suspends with its arrival recorded, and its next
// call only waits out the generation it arrived in.
func (p *Proc) reduceMax(v float64, step bool) (res float64, ok bool) {
	rt := p.rt
	if p.suspended {
		p.suspended = false
		rt.bmu.Lock()
	} else {
		p.enterOp() // may die, and a death takes bmu
		rt.checkAborted()
		rt.bmu.Lock()
		rt.reduceVals[p.rank] = v
		rt.bArr[p.rank] = true
		rt.bcnt++
		p.roundGen = rt.bgen
		if rt.completeBarrierLocked() {
			if p.syncPhase == 2 && rt.ev != nil {
				// SyncResetTime's second generation: every clock is 0, and
				// every other live rank is parked here, so no wake is queued.
				rt.ev.q.rewind()
				rt.ev.now = 0
			}
			rt.drv.wake(stBarrierWait, rt.reduceRes)
		}
	}
	if !p.awaitRound(stBarrierWait, &rt.bgen, p.roundGen, step) {
		rt.bmu.Unlock()
		return 0, false
	}
	// reduceRes cannot be clobbered by the next generation before every
	// rank of this one has read it: completing generation g+1 requires
	// all live ranks to have left generation g, and a parked rank
	// cannot die.
	res = rt.reduceRes
	rt.bmu.Unlock()
	if p.vt < res {
		p.vt = res
	}
	return res, true
}

// awaitRound parks p, with rt.bmu held, until the round generation
// *gen has moved past g: the completer (whose completion just advanced
// it) falls straight through, everyone else waits for the wake — or,
// stepped (see recv), suspends: false, with rt.bmu still held.
func (p *Proc) awaitRound(st waitState, gen *int, g int, step bool) bool {
	rt := p.rt
	for *gen == g {
		if rt.aborted.Load() {
			rt.bmu.Unlock()
			panic(errAborted)
		}
		if step && p.suspend(st) {
			return false
		}
		rt.drv.park(p, st, rt.bcond)
	}
	return true
}

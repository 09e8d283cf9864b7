package mpirt

import (
	"math"
	"testing"

	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
)

// TestCriticalPathRelay walks a hand-computed relay on two one-rank-per-
// socket nodes. Rank 0 sends 8000 B to rank 2 (off-node), then 1000 B to
// rank 1, which queues behind the first on rank 0's port; rank 1 relays
// 1000 B to rank 2, which receives both. The path runs rank 0's two send
// overheads, the queued transit to rank 1, rank 1's receive and send
// overheads, the relay's transit, and rank 2's receive overhead — and
// its spans sum to Report.Time, on every driver: under NiagaraParams,
// 5.793 µs = α 1.850 + size/β 0.343 + queueing 2.850 + local 0.750.
func TestCriticalPathRelay(t *testing.T) {
	prm := netmodel.NiagaraParams()
	o, node, group := prm.SendOverhead, topology.DistNode, topology.DistGroup
	// Rank 0's port is busy with the first message until o + α + 8000/β.
	queued := o + prm.Alpha[group] + 8000/prm.Beta[group] - 2*o
	bArrive := 2*o + queued + prm.Alpha[node] + 1000/prm.Beta[node]
	cDepart := bArrive + prm.RecvOverhead + o
	cArrive := cDepart + prm.Alpha[group] + 1000/prm.Beta[group]
	end := cArrive + prm.RecvOverhead
	want := []Span{
		{Rank: 0, Src: -1, Tag: 2, From: 0, To: 2 * o},
		{Rank: 1, Src: 0, Tag: 2, Size: 1000, From: 2 * o, To: bArrive,
			Alpha: prm.Alpha[node], Wire: 1000 / prm.Beta[node], Queue: queued},
		{Rank: 1, Src: -1, Tag: 3, From: bArrive, To: cDepart},
		{Rank: 2, Src: 1, Tag: 3, Size: 1000, From: cDepart, To: cArrive,
			Alpha: prm.Alpha[group], Wire: 1000 / prm.Beta[group], Posted: 2*o + queued + prm.RecvOverhead},
		{Rank: 2, Src: -1, Tag: 3, From: cArrive, To: end},
	}
	allDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.Ranks, cfg.CriticalPath = topology.Niagara(2, 1), 3, true
		rep, err := Run(cfg, func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Send(2, 1, 8000, nil, nil)
				p.Send(1, 2, 1000, nil, nil)
			case 1:
				p.Recv(0, 2)
				p.Send(2, 3, 1000, nil, nil)
			case 2:
				p.Recv(0, 1)
				p.Recv(1, 3)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
		if !near(rep.Time, end) {
			t.Fatalf("Time %g, want %g", rep.Time, end)
		}
		if len(rep.Path) != len(want) {
			t.Fatalf("path %+v, want %+v", rep.Path, want)
		}
		var sum float64
		for i, s := range rep.Path {
			w := want[i]
			if s.Rank != w.Rank || s.Src != w.Src || s.Tag != w.Tag || s.Size != w.Size ||
				!near(s.From, w.From) || !near(s.To, w.To) || !near(s.Alpha, w.Alpha) ||
				!near(s.Wire, w.Wire) || !near(s.Queue, w.Queue) || !near(s.Posted, w.Posted) {
				t.Errorf("span %d = %+v, want %+v", i, s, w)
			}
			if s.Src < 0 {
				sum += s.To - s.From
			} else {
				sum += s.Alpha + s.Wire + s.Queue
			}
		}
		if !near(sum, rep.Time) {
			t.Errorf("spans sum to %g, Time %g", sum, rep.Time)
		}
	})
}

// TestCriticalPathClosingBarrier: a section closed by CollectiveTime
// lifts every clock to its end, and the walk still starts at the rank
// that got there on its own, not at rank 0.
func TestCriticalPathClosingBarrier(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.CriticalPath = smallCluster(), true
		rep, err := Run(cfg, func(p *Proc) {
			p.SyncResetTime()
			switch p.Rank() {
			case 6:
				p.Send(7, 1, 64, nil, nil)
			case 7:
				p.Recv(6, 1)
				p.AdvanceVT(1e-3)
			}
			p.CollectiveTime()
		})
		if err != nil {
			t.Fatal(err)
		}
		if last := rep.Path[len(rep.Path)-1]; last.Rank != 7 || last.To != rep.Time || len(rep.Path) != 3 {
			t.Fatalf("path %+v does not end on rank 7 at %g", rep.Path, rep.Time)
		}
	})
}

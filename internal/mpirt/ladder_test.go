package mpirt

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nbrallgather/internal/netmodel"
)

// TestBlockingCoreLadder walks the one receive error ladder and the two
// dead-tolerant rounds rung by rung on each driver: the observer
// rank's blocking operation must end in the same typed error, and
// charge the same virtual time, on the threaded engine, the event
// engine and under chaos scheduling (no faults injected).
func TestBlockingCoreLadder(t *testing.T) {
	const detect = 100e-6 // detectTimeout
	genMax := 3e-6        // a variable: the sum below must round as the clocks do
	dieAtFirstOp := func(p *Proc) { p.Barrier() }
	// awaitArrivals holds p back until the pending round of the counter
	// has k contributions, so a row can order a death or a late arrival
	// after them on every driver.
	awaitArrivals := func(p *Proc, cnt *int, k int) {
		for {
			p.rt.lock()
			c := *cnt
			p.rt.unlock()
			if c == k {
				return
			}
			p.Yield()
		}
	}
	skewed := func(p *Proc) { p.AdvanceVT(float64(p.Rank()) * 1e-6) }
	usageErr := func(rank int, op string) func(error) bool {
		return func(err error) bool {
			var ue *UsageError
			return errors.As(err, &ue) && ue.Rank == rank && ue.Op == op
		}
	}
	for _, row := range []struct {
		name     string
		ranks    int
		kills    []Kill
		faults   []netmodel.LinkFault
		observer int
		// others is what every other rank does; op is the observer's
		// blocking operation, entered once every rank in dead is dead.
		others func(p *Proc)
		dead   []int
		op     func(p *Proc) error
		// wantErr judges op's error; wantRunErr, when set, says the run
		// must fail (op never returns) and judges Run's error instead.
		wantErr    func(error) bool
		wantRunErr func(error) bool
		// wantCharge is op's virtual-time cost; negative means "positive,
		// and the same on both engines".
		wantCharge float64
		// chaosSeeds are further chaos schedules the row runs under,
		// beside seed 7.
		chaosSeeds []int64
	}{
		{
			name: "revoked", ranks: 2,
			others:  func(p *Proc) { p.Revoke() },
			op:      func(p *Proc) error { _, err := p.RecvErr(1, 42); return err },
			wantErr: func(err error) bool { var cr *CommRevokedError; return errors.As(err, &cr) },
		},
		{
			name: "dead source", ranks: 2, kills: []Kill{{Rank: 1}},
			others: dieAtFirstOp, dead: []int{1},
			op:         func(p *Proc) error { _, err := p.RecvErr(1, 8); return err },
			wantErr:    func(err error) bool { return isRankFailed(err, 1) },
			wantCharge: detect,
		},
		{
			name: "dead source, eager message queued", ranks: 2, kills: []Kill{{Rank: 1, AfterOps: 1}},
			others: func(p *Proc) {
				p.Send(0, 7, 4, []byte{1, 2, 3, 4}, nil)
				p.Barrier() // dies here
			},
			dead: []int{1},
			op: func(p *Proc) error {
				m, err := p.RecvErr(1, 7)
				if err == nil && (m.Src != 1 || m.Size != 4) {
					err = fmt.Errorf("pre-crash message mangled: %+v", m)
				}
				return err
			},
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: -1,
		},
		{
			name: "AnySource, every peer dead", ranks: 3, kills: []Kill{{Rank: 1}, {Rank: 2}},
			others: dieAtFirstOp, dead: []int{1, 2},
			op:         func(p *Proc) error { _, err := p.RecvErr(AnySource, AnyTag); return err },
			wantErr:    func(err error) bool { return isRankFailed(err, 1) },
			wantCharge: detect,
		},
		{
			name: "link down", ranks: 8, observer: 4,
			faults: []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(0), 0)},
			op:     func(p *Proc) error { _, err := p.RecvErr(0, 3); return err },
			wantErr: func(err error) bool {
				var lf *LinkFailedError
				return errors.As(err, &lf) && *lf == LinkFailedError{Res: netmodel.NICOf(0), Src: 0, Dst: 4}
			},
			wantCharge: detect,
		},
		{
			name: "invalid source", ranks: 2,
			op:         func(p *Proc) error { _, err := p.RecvErr(99, 0); return err },
			wantRunErr: usageErr(0, "recv"),
		},
		{
			name: "abort while parked", ranks: 2,
			others:     func(p *Proc) { p.Send(99, 0, 1, nil, nil) },
			op:         func(p *Proc) error { _, err := p.RecvErr(1, 3); return err },
			wantRunErr: usageErr(1, "send"),
			// The aborting rank's exit used to hand the token on before its
			// error was recorded, and the scheduler, finding rank 0 parked
			// with nothing in flight, called it a deadlock on seeds 0, 2, 3
			// and 5.
			chaosSeeds: []int64{0, 1, 2, 3, 4, 5},
		},
		{
			name: "rank dies before the barrier", ranks: 4, kills: []Kill{{Rank: 3}},
			others: func(p *Proc) {
				p.AdvanceVT(float64(p.Rank()) * 1e-6)
				p.Barrier() // rank 3 dies entering it
			},
			op:         func(p *Proc) error { p.Barrier(); return nil },
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: 2e-6, // the maximum over the ranks that arrived
		},
		{
			name: "rank dies before the agreement", ranks: 4, kills: []Kill{{Rank: 3}},
			others: func(p *Proc) {
				p.AdvanceVT(float64(p.Rank()) * 1e-6)
				p.Agree(true)
			},
			op: func(p *Proc) error {
				if !p.Agree(true) {
					return errors.New("survivors disagreed")
				}
				return nil
			},
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: -1,
		},
		// The gated completion checks (arrivals + deaths ≥ n, then the
		// scan): rounds the death itself completes, and rounds a death
		// must not complete early.
		{
			name: "barrier completed by the death", ranks: 4, kills: []Kill{{Rank: 3}},
			others: func(p *Proc) {
				if p.Rank() == 3 {
					awaitArrivals(p, &p.rt.bcnt, 3)
				}
				skewed(p)
				p.Barrier() // rank 3 dies entering it, the last one missing
			},
			op:         func(p *Proc) error { p.Barrier(); return nil },
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: 2e-6,
		},
		{
			name: "agreement completed by the death", ranks: 4, kills: []Kill{{Rank: 3}},
			others: func(p *Proc) {
				if p.Rank() == 3 {
					awaitArrivals(p, &p.rt.ftCnt, 3)
				}
				skewed(p)
				p.Agree(true)
			},
			op: func(p *Proc) error {
				if !p.Agree(true) {
					return errors.New("survivors disagreed")
				}
				return nil
			},
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: 3.2e-06, // 2 µs of skew + 2·⌈log₂ 3⌉ overhead pairs, as at the parent
		},
		{
			name: "two deaths complete the barrier", ranks: 4, kills: []Kill{{Rank: 2}, {Rank: 3}},
			others: func(p *Proc) {
				if p.Rank() >= 2 {
					awaitArrivals(p, &p.rt.bcnt, 2)
				}
				skewed(p)
				p.Barrier()
			},
			op:         func(p *Proc) error { p.Barrier(); return nil },
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: 1e-6,
		},
		{
			// Rank 3 leaves generation g and dies entering g+1; rank 2,
			// the latest clock, arrives at g+1 last. The dead rank counts
			// towards the gate from the first arrival on, and g+1 must
			// still wait for rank 2.
			name: "dead before the next generation", ranks: 4, kills: []Kill{{Rank: 3, AfterOps: 1}},
			others: func(p *Proc) {
				skewed(p)
				p.Barrier()
				if p.Rank() == 2 {
					awaitArrivals(p, &p.rt.bcnt, 2)
				}
				skewed(p)
				p.Barrier()
			},
			op: func(p *Proc) error {
				p.Barrier()
				awaitDead(p, 3)
				p.Barrier()
				return nil
			},
			wantErr:    func(err error) bool { return err == nil },
			wantCharge: genMax + 2e-6,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			charges := map[string]float64{}
			type driver struct {
				name  string
				eng   Engine
				chaos *Chaos
			}
			drivers := []driver{
				{name: "threaded", eng: EngineThreaded},
				{name: "event", eng: EngineEvent},
				{name: "chaos", chaos: &Chaos{Seed: 7}},
			}
			for _, seed := range row.chaosSeeds {
				drivers = append(drivers, driver{name: fmt.Sprintf("chaos seed %d", seed), chaos: &Chaos{Seed: seed}})
			}
			for _, drv := range drivers {
				var opErr error
				returned := false
				_, runErr := Run(Config{
					Cluster: failureCluster(), Ranks: row.ranks, Engine: drv.eng, Chaos: drv.chaos,
					Kills: row.kills, LinkFaults: row.faults, WallLimit: 30 * time.Second,
				}, func(p *Proc) {
					if p.Rank() != row.observer {
						if row.others != nil {
							row.others(p)
						}
						return
					}
					for _, d := range row.dead {
						awaitDead(p, d)
					}
					before := p.VT()
					opErr = row.op(p)
					charges[drv.name], returned = p.VT()-before, true
				})
				if row.wantRunErr != nil {
					if returned || !row.wantRunErr(runErr) {
						t.Fatalf("%s: op returned=%v (%v), run error %v", drv.name, returned, opErr, runErr)
					}
					continue
				}
				if runErr != nil || !returned || !row.wantErr(opErr) {
					t.Fatalf("%s: op returned=%v with %v; run error %v", drv.name, returned, opErr, runErr)
				}
				if c := charges[drv.name]; (row.wantCharge >= 0 && c != row.wantCharge) || (row.wantCharge < 0 && c <= 0) {
					t.Fatalf("%s: op charged %g of virtual time, want %g", drv.name, c, row.wantCharge)
				}
			}
			if row.wantRunErr == nil && (charges["threaded"] != charges["event"] || charges["chaos"] != charges["event"]) {
				t.Fatalf("virtual-time charge differs by driver: %v", charges)
			}
		})
	}
}

// TestRoundScans: Report.RoundScans is filled by every driver and
// counts both kinds of round — one pass over the ranks for a barrier,
// one for an agreement, when nobody dies.
func TestRoundScans(t *testing.T) {
	for _, cfg := range []Config{{Engine: EngineThreaded}, {Engine: EngineEvent}, {Chaos: &Chaos{Seed: 3}}} {
		cfg.Cluster, cfg.Ranks = failureCluster(), 4
		rep, err := Run(cfg, func(p *Proc) {
			p.Barrier()
			p.Agree(true)
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RoundScans != 2*4 {
			t.Errorf("engine %q chaos %v: RoundScans = %d, want 8", cfg.Engine, cfg.Chaos != nil, rep.RoundScans)
		}
	}
}

package mpirt

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nbrallgather/internal/netmodel"
)

// TestBlockingCoreLadder walks the one receive error ladder and the two
// dead-tolerant rounds rung by rung on each plain driver: the observer
// rank's blocking operation must end in the same typed error, and
// charge the same virtual time, on the threaded and the event engine.
func TestBlockingCoreLadder(t *testing.T) {
	const detect = 100e-6 // the default Config.DetectTimeout
	dieAtFirstOp := func(p *Proc) { p.Barrier() }
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
	} {
		t.Run(row.name, func(t *testing.T) {
			charges := map[Engine]float64{}
			for _, eng := range Engines() {
				var opErr error
				returned := false
				_, runErr := Run(Config{
					Cluster: failureCluster(), Ranks: row.ranks, Engine: eng,
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
					charges[eng], returned = p.VT()-before, true
				})
				if row.wantRunErr != nil {
					if returned || !row.wantRunErr(runErr) {
						t.Fatalf("%s: op returned=%v (%v), run error %v", eng, returned, opErr, runErr)
					}
					continue
				}
				if runErr != nil || !returned || !row.wantErr(opErr) {
					t.Fatalf("%s: op returned=%v with %v; run error %v", eng, returned, opErr, runErr)
				}
				if c := charges[eng]; (row.wantCharge >= 0 && c != row.wantCharge) || (row.wantCharge < 0 && c <= 0) {
					t.Fatalf("%s: op charged %g of virtual time, want %g", eng, c, row.wantCharge)
				}
			}
			if charges[EngineThreaded] != charges[EngineEvent] {
				t.Fatalf("virtual-time charge differs: threaded %g, event %g", charges[EngineThreaded], charges[EngineEvent])
			}
		})
	}
}

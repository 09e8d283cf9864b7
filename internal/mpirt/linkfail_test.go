package mpirt

import (
	"errors"
	"fmt"
	"testing"

	"nbrallgather/internal/netmodel"
	"nbrallgather/internal/topology"
)

// twoGroups: 2 nodes × 1 socket × 2 ranks, one node per group — ranks
// 0,1 on node 0 / group 0, ranks 2,3 on node 1 / group 1.
func twoGroups() topology.Cluster {
	return topology.Cluster{Nodes: 2, SocketsPerNode: 1, RanksPerSocket: 2, NodesPerGroup: 1}
}

// TestSendAcrossDownNIC pins the exact error a send across a dead NIC
// fails with: typed *LinkFailedError carrying the blocking resource and
// the transfer endpoints, matching the ErrLinkFailed sentinel, with the
// detection cost charged once per (observer, resource) no matter how
// many operations observe it.
func TestSendAcrossDownNIC(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		rep, err := Run(Config{
			Cluster:    failureCluster(),
			Ranks:      8,
			Engine:     eng,
			LinkFaults: []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(1), 0)},
		}, func(p *Proc) {
			if p.Rank() != 0 {
				return
			}
			serr := p.SendErr(4, 1, 8, make([]byte, 8), nil)
			var lf *LinkFailedError
			if !errors.As(serr, &lf) {
				panic(fmt.Sprintf("SendErr = %v, want *LinkFailedError", serr))
			}
			want := &LinkFailedError{Res: netmodel.NICOf(1), Src: 0, Dst: 4}
			if *lf != *want {
				panic(fmt.Sprintf("LinkFailedError = %+v, want %+v", *lf, *want))
			}
			if !errors.Is(serr, ErrLinkFailed) {
				panic("LinkFailedError does not match ErrLinkFailed")
			}
			const text = "mpirt: nic 1 down: transfer 0→4 undeliverable"
			if serr.Error() != text {
				panic(fmt.Sprintf("error text %q, want %q", serr.Error(), text))
			}
			// Same resource, different transfer: still fails, but the
			// detection is memoised — no second charge.
			if serr2 := p.SendErr(5, 1, 8, make([]byte, 8), nil); !errors.Is(serr2, ErrLinkFailed) {
				panic(fmt.Sprintf("second SendErr = %v, want link failure", serr2))
			}
			// Intra-node traffic is untouched.
			if ierr := p.SendErr(1, 2, 8, make([]byte, 8), nil); ierr != nil {
				panic(fmt.Sprintf("intra-node SendErr = %v, want nil", ierr))
			}
			var impaired []int
			for r := 0; r < p.Size(); r++ {
				if p.Model().ImpairedFinal(r) {
					impaired = append(impaired, r)
				}
			}
			if fmt.Sprint(impaired) != "[4 5 6 7]" {
				panic(fmt.Sprintf("end-state impaired ranks = %v, want node 1's ranks", impaired))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.LinkDetections != 1 {
			t.Errorf("LinkDetections = %d, want 1 (memoised)", rep.LinkDetections)
		}
		if rep.LinkDetectTime != 100e-6 {
			t.Errorf("LinkDetectTime = %g, want the 100µs default", rep.LinkDetectTime)
		}
	})
}

// TestRecvAcrossDownPath pins that a receive posted against a down
// path with nothing queued fails with the typed error instead of
// parking forever — on every driver.
func TestRecvAcrossDownPath(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		cfg.Cluster, cfg.Ranks = failureCluster(), 8
		cfg.LinkFaults = []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(0), 0)}
		rep, err := Run(cfg, func(p *Proc) {
			if p.Rank() != 4 {
				return
			}
			_, rerr := p.RecvErr(0, 3)
			var lf *LinkFailedError
			if !errors.As(rerr, &lf) {
				panic(fmt.Sprintf("RecvErr = %v, want *LinkFailedError", rerr))
			}
			want := &LinkFailedError{Res: netmodel.NICOf(0), Src: 0, Dst: 4}
			if *lf != *want {
				panic(fmt.Sprintf("LinkFailedError = %+v, want %+v", *lf, *want))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.LinkDetections != 1 {
			t.Errorf("LinkDetections = %d, want 1", rep.LinkDetections)
		}
	})
}

// TestPartitionErrorFields pins the typed partition error for a
// transfer crossing a fabric cut, and that intra-side traffic flows.
func TestPartitionErrorFields(t *testing.T) {
	bothEngines(t, func(t *testing.T, eng Engine) {
		_, err := Run(Config{
			Cluster:    twoGroups(),
			Engine:     eng,
			LinkFaults: []netmodel.LinkFault{netmodel.Partition(0, 0)},
		}, func(p *Proc) {
			switch p.Rank() {
			case 0:
				serr := p.SendErr(2, 1, 4, make([]byte, 4), nil)
				var pe *PartitionError
				if !errors.As(serr, &pe) {
					panic(fmt.Sprintf("SendErr = %v, want *PartitionError", serr))
				}
				if fmt.Sprint(pe.Groups) != "[0]" || pe.Src != 0 || pe.Dst != 2 {
					panic(fmt.Sprintf("PartitionError = %+v, want Groups [0], 0→2", *pe))
				}
				if !errors.Is(serr, ErrLinkFailed) {
					panic("PartitionError does not match ErrLinkFailed")
				}
				const text = "mpirt: fabric partitioned at groups [0]: transfer 0→2 undeliverable"
				if serr.Error() != text {
					panic(fmt.Sprintf("error text %q, want %q", serr.Error(), text))
				}
				p.Send(1, 2, 4, []byte{1, 2, 3, 4}, nil)
			case 1:
				m := p.Recv(0, 2)
				if m.Size != 4 {
					panic(fmt.Sprintf("intra-side message size %d, want 4", m.Size))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueuedMessageSurvivesLinkFault pins the queued-message rule: a
// transfer charged before the fault's virtual time stays deliverable
// (its eager transfer completed), while operations after the fault
// observe the failure — on every driver.
func TestQueuedMessageSurvivesLinkFault(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		// The fault lands just after t=0: the first send (charged at
		// vt=0) beats it; by the second send the sender's clock has
		// advanced past it.
		cfg.Cluster, cfg.Ranks = failureCluster(), 8
		cfg.LinkFaults = []netmodel.LinkFault{netmodel.LinkDown(netmodel.NICOf(0), 1e-9)}
		_, err := Run(cfg, func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Send(4, 1, 4, []byte{9, 9, 9, 9}, nil)
				if serr := p.SendErr(4, 2, 4, make([]byte, 4), nil); !errors.Is(serr, ErrLinkFailed) {
					panic(fmt.Sprintf("post-fault SendErr = %v, want link failure", serr))
				}
			case 4:
				m := p.Recv(0, 1)
				if m.Size != 4 || m.Data[0] != 9 {
					panic(fmt.Sprintf("pre-fault message corrupted: %+v", m))
				}
				if _, rerr := p.RecvErr(0, 2); !errors.Is(rerr, ErrLinkFailed) {
					panic(fmt.Sprintf("post-fault RecvErr = %v, want link failure", rerr))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

package harness

import (
	"fmt"
	"sync/atomic"
	"testing"

	"nbrallgather/internal/collective"
	"nbrallgather/internal/conformance"
	"nbrallgather/internal/mpirt"
)

// TestPhantomTrialsIdentical is the licence for simulating one phantom
// trial: on the event engine, for every algorithm of the table on the
// nine conformance shapes, every trial of a run that simulates them all
// takes the bit-identical virtual time, the run's traffic counts are k
// times a one-trial run's, and the Result Measure builds from its one
// simulated trial equals the one built from all k, field for field.
func TestPhantomTrialsIdentical(t *testing.T) {
	shapes, err := conformance.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	for _, sh := range shapes {
		for _, algo := range collective.Algos() {
			op, err := collective.New(algo, sh.Graph, sh.Cluster, collective.PlanParams{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{24, 64 << 10} {
				t.Run(fmt.Sprintf("%s/%s/%dB", sh.Name, algo, m), func(t *testing.T) {
					cfg := Config{Cluster: sh.Cluster, MsgSize: m, Trials: k, Phantom: true}
					all, allRep, err := runMeasurement(cfg, cfg.runtime(), op, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					for tr, x := range all.times {
						if x != all.times[0] {
							t.Fatalf("trial %d took %v, trial 0 %v: %v", tr, x, all.times[0], all.times)
						}
					}
					_, oneRep, err := runMeasurement(cfg, cfg.runtime(), op, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						name     string
						all, one int64
					}{
						{"msgs", allRep.Msgs(), oneRep.Msgs()},
						{"bytes", allRep.Bytes(), oneRep.Bytes()},
						{"off-socket msgs", allRep.OffSocketMsgs(), oneRep.OffSocketMsgs()},
						{"max rank msgs", allRep.MaxRankMsgs, oneRep.MaxRankMsgs},
					} {
						if c.all != k*c.one {
							t.Errorf("%s: %d over %d trials, %d over one", c.name, c.all, k, c.one)
						}
					}
					want := result(all.times, k, allRep)
					got, err := Measure(cfg, op)
					if err != nil {
						t.Fatal(err)
					}
					got.Wall, want.Wall = 0, 0
					if got != want {
						t.Errorf("Measure %+v, all %d trials %+v", got, k, want)
					}
				})
			}
		}
	}
}

// passCounter counts the passes rank 0 begins: one per trial simulated.
type passCounter struct {
	collective.Op
	n *atomic.Int64
}

func (o passCounter) Begin(ps *collective.Pass, p mpirt.Endpoint, sbuf []byte, m int, rbuf []byte) {
	if p.Rank() == 0 {
		o.n.Add(1)
	}
	o.Op.Begin(ps, p, sbuf, m, rbuf)
}

// TestMeasureSimulatesEveryTrialUnlessPhantomEvent: only a phantom
// measurement on the event engine outside chaos stands one trial for
// all; real payloads, a chaos schedule and the threaded engine run every
// one.
func TestMeasureSimulatesEveryTrialUnlessPhantomEvent(t *testing.T) {
	c := testCluster()
	g := testGraph(t, c, 0.4)
	const k = 3
	for _, tc := range []struct {
		name string
		cfg  Config
		want int64
	}{
		{"phantom event", Config{Phantom: true}, 1},
		{"real payloads", Config{}, k},
		{"chaos", Config{Phantom: true, Chaos: &mpirt.Chaos{Seed: 1}}, k},
		{"threaded", Config{Phantom: true, Engine: mpirt.EngineThreaded}, k},
	} {
		var n atomic.Int64
		tc.cfg.Cluster, tc.cfg.MsgSize, tc.cfg.Trials = c, 64, k
		res, err := Measure(tc.cfg, passCounter{collective.NewNaive(g), &n})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n.Load() != tc.want || res.Trials != k {
			t.Errorf("%s: %d trials simulated, Result.Trials %d; want %d and %d", tc.name, n.Load(), res.Trials, tc.want, k)
		}
		if res.MsgsPerTrial != int64(g.Edges()) || res.MaxRankMsgs%k != 0 {
			t.Errorf("%s: %d msgs/trial (want %d edges), max rank msgs %d not a whole run's", tc.name, res.MsgsPerTrial, g.Edges(), res.MaxRankMsgs)
		}
	}
}

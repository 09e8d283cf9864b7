package mpirt

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"nbrallgather/internal/trace"
)

// Tests for engine selection and for the two-engine equivalence
// contract at the mpirt layer: identical ground-truth buffers and
// traffic counts always, identical canonical deadlock cycles, and —
// on the event engine alone — identical virtual times run to run. The
// full differential matrix lives in internal/conformance; these are
// the unit-sized anchors.

func TestEngineResolve(t *testing.T) {
	for _, tc := range []struct {
		in   Engine
		want Engine
		ok   bool
	}{
		{EngineDefault, EngineEvent, true},
		{EngineThreaded, EngineThreaded, true},
		{EngineEvent, EngineEvent, true},
		{Engine("bogus"), "", false},
	} {
		got, err := ResolveEngine(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ResolveEngine(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ResolveEngine(%q) accepted; want error", tc.in)
		}
	}
	if _, err := Run(Config{Cluster: smallCluster(), Engine: "bogus"}, func(*Proc) {}); err == nil {
		t.Error("Run accepted an unknown engine")
	}
	// The default is the event engine: only it reports loop telemetry.
	rep, err := Run(Config{Cluster: smallCluster()}, func(p *Proc) { p.Barrier() })
	if err != nil || rep.Events == 0 {
		t.Errorf("default-engine run: events %d, err %v; want the event engine", rep.Events, err)
	}
}

// engineExchange runs the chaos_test allgather body on the driver cfg
// selects and returns the report plus every rank's received-source sets.
func engineExchange(t *testing.T, cfg Config) (*Report, [8][]int) {
	t.Helper()
	var got [8][]int
	cfg.Cluster, cfg.WallLimit = smallCluster(), 20*time.Second
	rep, err := Run(cfg, allgatherBody(t, &got))
	if err != nil {
		t.Fatalf("engine %q, chaos %v: %v", cfg.Engine, cfg.Chaos != nil, err)
	}
	return rep, got
}

// sameTraffic reports whether two runs charged the same traffic: by
// distance class and on every fabric resource.
func sameTraffic(a, b *Report) bool {
	return a.MsgsByDist == b.MsgsByDist && a.BytesByDist == b.BytesByDist &&
		slices.Equal(a.ResMsgs, b.ResMsgs) && slices.Equal(a.ResBytes, b.ResBytes)
}

// TestEventEngineSelfDeterministic: without chaos the event engine is
// deterministic on its own — two runs agree on virtual time, traffic
// counts, and delivered data. (The threaded engine's VTs are
// host-order-dependent without chaos, so this property is the event
// engine's alone.)
func TestEventEngineSelfDeterministic(t *testing.T) {
	rep1, got1 := engineExchange(t, Config{Engine: EngineEvent})
	rep2, got2 := engineExchange(t, Config{Engine: EngineEvent})
	if rep1.Time != rep2.Time {
		t.Fatalf("event engine vt diverges across runs: %g vs %g", rep1.Time, rep2.Time)
	}
	if rep1.MsgsByDist != rep2.MsgsByDist || rep1.BytesByDist != rep2.BytesByDist ||
		rep1.MaxRankMsgs != rep2.MaxRankMsgs || rep1.MaxRankBytes != rep2.MaxRankBytes {
		t.Fatalf("event engine counters diverge: %+v vs %+v", rep1, rep2)
	}
	for r := range got1 {
		if len(got1[r]) != len(got2[r]) {
			t.Fatalf("rank %d delivery count diverges", r)
		}
		for i := range got1[r] {
			if got1[r][i] != got2[r][i] {
				t.Fatalf("rank %d delivery order diverges: %v vs %v", r, got1[r], got2[r])
			}
		}
	}
}

// TestEnginesAgreeOnTraffic: every driver runs the same program to the
// same ground truth — equal message and byte counts by distance class
// and on every fabric resource, and complete, duplicate-free delivery.
// Under -race the threaded leg also checks that its ranks charge the
// cost model only under the runtime mutex. (Virtual times are only
// comparable under chaos; see TestChaosOnEventBitExact.)
func TestEnginesAgreeOnTraffic(t *testing.T) {
	repE, gotE := engineExchange(t, Config{Engine: EngineEvent})
	for _, cfg := range []Config{{Engine: EngineThreaded}, {Chaos: DefaultChaos(5)}} {
		rep, got := engineExchange(t, cfg)
		if !sameTraffic(rep, repE) {
			t.Fatalf("traffic diverges (engine %q, chaos %v):\n%+v %+v %v %v\nevent %+v %+v %v %v", cfg.Engine, cfg.Chaos != nil,
				rep.MsgsByDist, rep.BytesByDist, rep.ResMsgs, rep.ResBytes, repE.MsgsByDist, repE.BytesByDist, repE.ResMsgs, repE.ResBytes)
		}
		for r := range got {
			var have, haveE [8]bool
			for _, s := range got[r] {
				have[s] = true
			}
			for _, s := range gotE[r] {
				haveE[s] = true
			}
			if have != haveE {
				t.Fatalf("rank %d delivered sets diverge (engine %q, chaos %v): %v vs %v", r, cfg.Engine, cfg.Chaos != nil, got[r], gotE[r])
			}
		}
	}
	// The same holds for ranks written as Steppers: every driver runs
	// them to the ground truth — the serial loops by stepping, threaded
	// through the step-until-done wrapper — with the traffic of the
	// coroutine body. The event engine gives the coroutine body's whole
	// report, and chaos its whole report and decision schedule.
	ref := ringExchange(t, Config{Engine: EngineEvent}, false)
	chaos := func(rec *trace.Schedule) Config {
		c := DefaultChaos(5)
		c.Record = rec
		return Config{Chaos: c}
	}
	refSched := trace.NewSchedule()
	refChaos := ringExchange(t, chaos(refSched), false)
	sched := trace.NewSchedule()
	for _, cfg := range []Config{{Engine: EngineEvent}, {Engine: EngineThreaded}, chaos(sched)} {
		rep := ringExchange(t, cfg, true)
		if !sameTraffic(rep, ref) {
			t.Fatalf("stepped traffic diverges (engine %q, chaos %v): %+v %v vs %+v %v", cfg.Engine, cfg.Chaos != nil, rep.MsgsByDist, rep.ResMsgs, ref.MsgsByDist, ref.ResMsgs)
		}
		if cfg.Engine == EngineEvent && !sameReport(rep, ref) {
			t.Fatalf("stepped report differs from the coroutine body's:\n%+v\n%+v", rep, ref)
		}
		if cfg.Chaos != nil && (!sched.Equal(refSched) || !sameReport(rep, refChaos)) {
			t.Fatalf("stepped chaos run differs from the coroutine body's: schedules equal %v (%d vs %d decisions)\n%+v\n%+v",
				sched.Equal(refSched), sched.Len(), refSched.Len(), rep, refChaos)
		}
	}
}

// TestChaosOnEventBitExact: chaos is a driver of its own, so
// Config.Engine plays no part in a chaos run — whatever it names, the
// same seed produces the identical decision schedule, virtual time and
// traffic, and none of the event loop's telemetry.
func TestChaosOnEventBitExact(t *testing.T) {
	once := func(eng Engine, seed int64) (*trace.Schedule, *Report) {
		var got [8][]int
		rec := trace.NewSchedule()
		c := DefaultChaos(seed)
		c.Record = rec
		rep, err := Run(Config{
			Cluster:   smallCluster(),
			WallLimit: 20 * time.Second,
			Chaos:     c,
			Engine:    eng,
		}, allgatherBody(t, &got))
		if err != nil {
			t.Fatalf("engine %q seed %d: %v", eng, seed, err)
		}
		return rec, rep
	}
	for seed := int64(0); seed < 5; seed++ {
		schedD, repD := once(EngineDefault, seed)
		for _, eng := range Engines() {
			sched, rep := once(eng, seed)
			if sched.Hash() != schedD.Hash() || rep.Time != repD.Time ||
				rep.MsgsByDist != repD.MsgsByDist || rep.BytesByDist != repD.BytesByDist {
				t.Fatalf("seed %d: chaos run with Engine %q differs from the default's: %x/%g vs %x/%g",
					seed, eng, sched.Hash(), rep.Time, schedD.Hash(), repD.Time)
			}
			if rep.Events != 0 || rep.Parks != 0 || rep.PeakQueue != 0 {
				t.Fatalf("seed %d: chaos run with Engine %q reports event telemetry", seed, eng)
			}
		}
	}
	if _, err := Run(Config{Cluster: smallCluster(), Chaos: DefaultChaos(1), Engine: "bogus"}, func(*Proc) {}); err == nil {
		t.Error("chaos run accepted an unknown engine")
	}
}

// TestEventDeadlockCycleMatchesThreaded: the wait-for-graph proof is
// engine-independent — both substrates report the same canonical cycle
// for the same stuck program, each with the chase a rank runs when it
// blocks.
func TestEventDeadlockCycleMatchesThreaded(t *testing.T) {
	cycle := func(eng Engine) *DeadlockError {
		t.Helper()
		_, err := Run(Config{
			Cluster:   failureCluster(),
			Ranks:     4,
			WallLimit: 30 * time.Second,
			Engine:    eng,
		}, cycleBody3)
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("engine %q: expected deadlock, got %v", eng, err)
		}
		var derr *DeadlockError
		if !errors.As(err, &derr) {
			t.Fatalf("engine %q: expected *DeadlockError, got %T", eng, err)
		}
		return derr
	}
	dT := cycle(EngineThreaded)
	dE := cycle(EngineEvent)
	if !dT.SameCycle(dE) {
		t.Fatalf("cycles diverge across engines:\nthreaded %v\nevent    %v", dT.Cycle, dE.Cycle)
	}
	want := []WaitEdge{
		{Rank: 0, Op: "recv", Peer: 1, Tag: 7},
		{Rank: 1, Op: "recv", Peer: 2, Tag: 7},
		{Rank: 2, Op: "recv", Peer: 0, Tag: 7},
	}
	for i := range want {
		if dE.Cycle[i] != want[i] {
			t.Fatalf("event cycle %v, want %v", dE.Cycle, want)
		}
	}
}

// TestEventEnginePhantom: phantom payloads run on the event engine with
// nil data but full cost accounting — the mode the mega-scale sweeps
// rely on.
func TestEventEnginePhantom(t *testing.T) {
	rep, err := Run(Config{Cluster: smallCluster(), Phantom: true, Engine: EngineEvent}, func(p *Proc) {
		n := p.Size()
		for d := 0; d < n; d++ {
			if d != p.Rank() {
				p.Send(d, 3, 4096, nil, nil)
			}
		}
		for i := 0; i < n-1; i++ {
			if m := p.Recv(AnySource, 3); m.Data != nil {
				t.Errorf("phantom recv returned data (%d bytes)", len(m.Data))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes() != int64(8*7*4096) {
		t.Fatalf("phantom bytes = %d, want %d", rep.Bytes(), 8*7*4096)
	}
	if rep.Time <= 0 {
		t.Fatalf("phantom run charged no virtual time")
	}
}

// TestEventYieldMakesProgress: a Yield poll loop on the event engine
// must let the polled-for rank run (the starvation regression), and
// Yield itself must not advance the modelled clock.
func TestEventYieldMakesProgress(t *testing.T) {
	_, err := Run(Config{Cluster: smallCluster(), Engine: EngineEvent, WallLimit: 10 * time.Second}, func(p *Proc) {
		if p.Rank() == 0 {
			before := p.VT()
			for !p.Probe(7, 9) {
				p.Yield()
			}
			if p.VT() != before {
				t.Errorf("Yield advanced vt from %g to %g", before, p.VT())
			}
			p.Recv(7, 9)
			return
		}
		if p.Rank() == 7 {
			p.Send(0, 9, 1, []byte{1}, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventTeardownUnwindsEveryCoroutine: a failed event-engine run
// returns the same typed error as the threaded engine and leaves no
// coroutine behind — the loop's stop() unwinds every parked rank, so
// the goroutine count settles back to its pre-run value.
func TestEventTeardownUnwindsEveryCoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kills []Kill
		body  func(*Proc)
		check func(error) bool
	}{
		{"deadlock", nil, cycleBody3, func(err error) bool {
			var derr *DeadlockError
			return errors.Is(err, ErrDeadlock) && errors.As(err, &derr)
		}},
		{"usage", nil, func(p *Proc) {
			if p.Rank() == 3 {
				p.Send(99, 0, 0, nil, nil)
			}
			p.Barrier()
		}, func(err error) bool {
			var ue *UsageError
			return errors.As(err, &ue) && ue.Rank == 3
		}},
		{"kill", []Kill{{Rank: 3}}, func(p *Proc) {
			if p.Rank() == 3 {
				p.Barrier() // dies here
			}
			p.Recv(3, 1) // every survivor parks on the victim
		}, func(err error) bool { return isRankFailed(err, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cluster: failureCluster(), Ranks: 4, Kills: tc.kills, WallLimit: 30 * time.Second}
			cfg.Engine = EngineThreaded
			if _, err := Run(cfg, tc.body); !tc.check(err) {
				t.Fatalf("threaded engine: unexpected error %v", err)
			}
			before := runtime.NumGoroutine()
			cfg.Engine = EngineEvent
			if _, err := Run(cfg, tc.body); !tc.check(err) {
				t.Fatalf("event engine: unexpected error %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines before the run, %d after: parked coroutines abandoned", before, n)
			}
		})
	}
}

// TestEventGoexitFailsRun: a rank body leaving through runtime.Goexit
// (t.FailNow inside a body) must fail the run on every driver, naming
// the rank, rather than return a report of half a run or a deadlock
// among the ranks it left behind. On the serial drivers the Goexit ends
// the loop's goroutine with it, and the ranks it leaves parked — here
// rank 2 parks in a receive, is woken and exits while the rest sit in
// the barrier — must still be unwound.
func TestEventGoexitFailsRun(t *testing.T) {
	allDrivers(t, func(t *testing.T, cfg Config) {
		before := runtime.NumGoroutine()
		cfg.Cluster = smallCluster()
		_, err := Run(cfg, func(p *Proc) {
			switch p.Rank() {
			case 2:
				p.Recv(3, 1)
				runtime.Goexit()
			case 3:
				p.Send(2, 1, 0, nil, nil)
			}
			p.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "Goexit") {
			t.Fatalf("expected rank 2's Goexit to fail the run, got %v", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines before the run, %d after: parked ranks abandoned", before, n)
		}
	})
}

// TestEventTelemetry: the event loop's counters are exact — identical
// run to run, consistent with each other — and stay zero on the
// threaded engine.
func TestEventTelemetry(t *testing.T) {
	rep1, _ := engineExchange(t, Config{Engine: EngineEvent})
	rep2, _ := engineExchange(t, Config{Engine: EngineEvent})
	if rep1.Events != rep2.Events || rep1.Parks != rep2.Parks || rep1.PeakQueue != rep2.PeakQueue {
		t.Fatalf("telemetry diverges across runs: %d/%d/%d vs %d/%d/%d",
			rep1.Events, rep1.Parks, rep1.PeakQueue, rep2.Events, rep2.Parks, rep2.PeakQueue)
	}
	// Every rank is resumed once to start and once per park, and all 8
	// start-up wakes are queued together.
	if rep1.Parks == 0 || rep1.Events != rep1.Parks+8 || rep1.PeakQueue < 8 {
		t.Fatalf("telemetry inconsistent: events %d parks %d peak queue %d", rep1.Events, rep1.Parks, rep1.PeakQueue)
	}
	repT, _ := engineExchange(t, Config{Engine: EngineThreaded})
	if repT.Events != 0 || repT.Parks != 0 || repT.PeakQueue != 0 {
		t.Fatalf("threaded engine reports event telemetry: %d/%d/%d", repT.Events, repT.Parks, repT.PeakQueue)
	}
	// Stepped ranks are counted like coroutines — a suspension is a
	// park, a Step call an event — and only by the event loop.
	co := ringExchange(t, Config{Engine: EngineEvent}, false)
	st := ringExchange(t, Config{Engine: EngineEvent}, true)
	if st.Parks == 0 || st.Events != st.Parks+8 || st.PeakQueue < 8 ||
		st.Events != co.Events || st.Parks != co.Parks || st.PeakQueue != co.PeakQueue {
		t.Fatalf("stepped telemetry %d/%d/%d, coroutine %d/%d/%d", st.Events, st.Parks, st.PeakQueue, co.Events, co.Parks, co.PeakQueue)
	}
	if stT := ringExchange(t, Config{Engine: EngineThreaded}, true); stT.Events != 0 || stT.Parks != 0 || stT.PeakQueue != 0 {
		t.Fatalf("threaded engine reports event telemetry for stepped ranks: %d/%d/%d", stT.Events, stT.Parks, stT.PeakQueue)
	}
}

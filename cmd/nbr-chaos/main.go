// Command nbr-chaos drives the deterministic chaos harness from the
// command line: it sweeps a conformance case family over a range of
// adversarial scheduling seeds, and replays any (case, seed) pair
// bit-exactly for debugging. There are two families: the differential
// matrix (every collective algorithm × collective kind × cluster/graph
// shape, the default) and, with -faults, the fault family — injected
// rank crashes (ULFM recovery) and link faults (down or degraded NICs,
// ports and uplinks, fabric partitions, topology-aware repair).
//
// Sweep (the acceptance run):
//
//	nbr-chaos -seeds 50
//	nbr-chaos -faults -seeds 10
//
// Replay a failure printed by the sweep or by the conformance tests:
//
//	nbr-chaos -case 2n2s3l/er35/dh/allgather -replay 17 -dump
//	nbr-chaos -faults -case failstop/2n2s3l/er35/dh/allgatherv/agent -replay 3
//	nbr-chaos -faults -case linkfault/cn/nicdown/before -replay 3
//
// Replay runs the seed twice and verifies the recorded schedules are
// hash-identical, then forces the recorded schedule back through the
// scheduler (divergence detection on) — the full determinism contract.
// Fault replays record the injected kills and link-fault detections in
// the schedule, so the printed decision counts include them.
//
// Ad-hoc fault injection overrides a fault case's derived kill
// schedule ("rank@afterOps" or "rank@afterOps@vt", comma-separated):
//
//	nbr-chaos -faults -case failstop/2n2s3l/er35/cn/allgatherv/mid -replay 0 -kill 5@3,1@0
//
// Everything above runs under the chaos driver, which takes no engine.
// -engine sweeps the same family under plain scheduling instead: on
// the threaded oracle, on the event engine, or — the cross-engine
// differential — on both, demanding equal outcomes and, where the
// case makes them comparable, equal traffic censuses. Replay and
// -schedule-only are chaos options and are rejected with -engine:
//
//	nbr-chaos -engine both -seeds 1
//	nbr-chaos -faults -engine both -seeds 10
//	nbr-chaos -faults -engine threaded -seeds 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nbrallgather/internal/conformance"
	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/prof"
	"nbrallgather/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nbr-chaos: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nbr-chaos", flag.ContinueOnError)
	fs.SetOutput(out)
	seeds := fs.Int("seeds", 50, "number of seeds to sweep")
	seedBase := fs.Int64("seed-base", 0, "first seed of the sweep (non-negative, like -replay)")
	caseName := fs.String("case", "", "restrict to one case of the family (see -list)")
	replay := fs.Int64("replay", -1, "replay one chaos seed instead of sweeping: record, re-run, compare, force-replay")
	scheduleOnly := fs.Bool("schedule-only", false, "chaos with adversarial scheduling only, no fault injection")
	faults := fs.Bool("faults", false, "run the fault case family (injected rank crashes and link faults) instead of the conformance matrix")
	killSpec := fs.String("kill", "", "with -faults -case, override the kill schedule: rank@afterOps[@vt], comma-separated")
	dump := fs.Bool("dump", false, "with -replay, print the recorded decision schedule")
	list := fs.Bool("list", false, "list the family's cases and exit")
	verbose := fs.Bool("v", false, "per-seed progress")
	engineFlag := fs.String("engine", "", "sweep under plain scheduling instead of chaos: on threaded, on event, or on both (the cross-engine differential)")
	pf := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mk := mpirt.DefaultChaos
	if *scheduleOnly {
		mk = mpirt.ScheduleOnly
	}
	check, mode := conformance.UnderChaos(mk), "under chaos"
	switch *engineFlag {
	case "":
	case "both":
		check, mode = conformance.Diff, "threaded vs event"
	default:
		eng, err := mpirt.ResolveEngine(mpirt.Engine(*engineFlag))
		if err != nil {
			return fmt.Errorf("-engine: %w", err)
		}
		check, mode = conformance.On(eng), "on "+string(eng)
	}
	if *engineFlag != "" && (*replay >= 0 || *scheduleOnly) {
		return fmt.Errorf("-replay and -schedule-only are chaos options; -engine selects plain scheduling")
	}
	if *seedBase < 0 {
		// A failing seed's reproduce line is -replay N, which takes only
		// non-negative seeds.
		return fmt.Errorf("-seed-base %d must be non-negative", *seedBase)
	}

	return pf.Wrap(func() error {
		fam, err := loadFamily(*faults)
		if err != nil {
			return err
		}
		if *list {
			for _, c := range fam.cases {
				fmt.Fprintln(out, c.CaseName())
			}
			return nil
		}
		if *caseName != "" {
			c, err := conformance.Find(fam.cases, *caseName)
			if err != nil {
				return err
			}
			fam.cases = []conformance.Runner{c}
		}
		if *killSpec != "" {
			fc, ok := fam.cases[0].(conformance.FaultCase)
			if !ok || *caseName == "" {
				return fmt.Errorf("-kill requires -faults and -case (an ad-hoc schedule applies to one fault case)")
			}
			if fc.Kills, err = parseKills(*killSpec); err != nil {
				return err
			}
			fam.cases[0] = fc
		}
		if *replay >= 0 {
			return replaySeed(out, fam.cases, *replay, mk, *dump)
		}
		return sweep(out, fam, *seeds, *seedBase, check, mode, *verbose)
	})
}

// family is one conformance case family as the command line sees it.
type family struct {
	flag  string // selects the family, for reproduce lines
	what  string // names its runs
	pass  string // what a passing run established
	cases []conformance.Runner
}

func loadFamily(faults bool) (family, error) {
	if faults {
		cs, err := conformance.FaultMatrix()
		return family{"-faults ", "fault ", "recovered, degraded gracefully, returned identical partition verdicts, or failed fast with typed errors", runners(cs)}, err
	}
	cs, err := conformance.Matrix()
	return family{"", "", "byte-identical to ground truth", runners(cs)}, err
}

func runners[C conformance.Runner](cs []C) []conformance.Runner {
	out := make([]conformance.Runner, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

func sweep(out io.Writer, fam family, nseeds int, base int64, check conformance.Check, mode string, verbose bool) error {
	if nseeds < 1 {
		return fmt.Errorf("-seeds %d must be positive", nseeds)
	}
	seeds := make([]int64, nseeds)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	fmt.Fprintf(out, "%ssweep %s: %d cases × %d seeds (seeds %d..%d)\n",
		fam.what, mode, len(fam.cases), nseeds, base, base+int64(nseeds)-1)
	failures := conformance.Sweep(fam.cases, seeds, check, func(done, failures int) {
		if verbose || done == len(seeds) {
			fmt.Fprintf(out, "  seed %d/%d done, %d failures\n", done, len(seeds), failures)
		}
	})
	runs := len(fam.cases) * nseeds
	if len(failures) == 0 {
		fmt.Fprintf(out, "PASS: %d %sruns %s %s\n", runs, fam.what, mode, fam.pass)
		return nil
	}
	for _, f := range failures {
		fmt.Fprintf(out, "FAIL %s\n  reproduce: nbr-chaos %s-case %s -replay %d\n", f, fam.flag, f.Case.CaseName(), f.Seed)
	}
	return fmt.Errorf("%d of %d %sruns failed", len(failures), runs, fam.what)
}

func replaySeed(out io.Writer, cases []conformance.Runner, seed int64, mk func(int64) *mpirt.Chaos, dump bool) error {
	for _, c := range cases {
		if fc, ok := c.(conformance.FaultCase); ok {
			kills, faults := fc.Faults(seed)
			if len(kills) > 0 {
				fmt.Fprintf(out, "%s: kill schedule %s\n", fc.Name, formatKills(kills))
			}
			if len(faults) > 0 {
				fmt.Fprintf(out, "%s: fault schedule %v\n", fc.Name, faults)
			}
		}
		err := replayTriple(out, c.CaseName(), seed, func(replayFrom *trace.Schedule) (*trace.Schedule, error) {
			ch := mk(seed)
			s := trace.NewSchedule()
			ch.Record = s
			ch.Replay = replayFrom
			_, err := c.Run(mpirt.EngineDefault, seed, ch)
			return s, err
		}, dump)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayTriple implements the determinism contract every family's
// replay shares: record twice, compare hashes, then force the first
// schedule back through the scheduler and demand equality.
func replayTriple(out io.Writer, name string, seed int64, runOnce func(*trace.Schedule) (*trace.Schedule, error), dump bool) error {
	s1, err1 := runOnce(nil)
	s2, err2 := runOnce(nil)
	if (err1 == nil) != (err2 == nil) {
		return fmt.Errorf("%s seed %d: nondeterministic outcome: %v vs %v", name, seed, err1, err2)
	}
	if s1.Hash() != s2.Hash() {
		return fmt.Errorf("%s seed %d: schedules diverge at decision %d — determinism broken",
			name, seed, s1.Diverge(s2))
	}
	s3, err3 := runOnce(s1)
	if err3 != nil && err1 == nil {
		return fmt.Errorf("%s seed %d: forced replay failed: %v", name, seed, err3)
	}
	if !s1.Equal(s3) {
		return fmt.Errorf("%s seed %d: forced replay produced a different schedule (diverge at %d)",
			name, seed, s1.Diverge(s3))
	}

	resumes, delivers, drops := s1.Counts()
	status := "PASS"
	if err1 != nil {
		status = "FAIL (reproduced)"
	}
	fmt.Fprintf(out, "%s %s seed %d: %d decisions (%d resumes, %d deliveries, %d dedups), schedule %016x, replay exact\n",
		status, name, seed, s1.Len(), resumes, delivers, drops, s1.Hash())
	if kills := s1.CountKind(trace.DecisionKill); kills > 0 {
		fmt.Fprintf(out, "  faults: %d kills, %d fail-notifies, %d revoke-notifies recorded in schedule\n",
			kills, s1.CountKind(trace.DecisionFailNotify), s1.CountKind(trace.DecisionRevokeNotify))
	}
	if err1 != nil {
		fmt.Fprintf(out, "  error: %v\n", err1)
		var d1 *mpirt.DeadlockError
		if errors.As(err1, &d1) {
			fmt.Fprintf(out, "  wait-for cycle (vt %.6g):\n", d1.VT)
			for _, e := range d1.Cycle {
				fmt.Fprintf(out, "    %s\n", e)
			}
			var d3 *mpirt.DeadlockError
			if !errors.As(err3, &d3) || !d1.SameCycle(d3) {
				return fmt.Errorf("%s seed %d: forced replay did not reproduce the deadlock cycle (%v vs %v)",
					name, seed, err1, err3)
			}
			fmt.Fprintln(out, "  replay reproduced the identical cycle")
		}
	}
	if dump {
		if err := s1.Write(out); err != nil {
			return err
		}
	}
	return nil
}

// parseKills parses the -kill spec: "rank@afterOps" or
// "rank@afterOps@vt", comma-separated. Empty input is no override.
func parseKills(spec string) ([]mpirt.Kill, error) {
	if spec == "" {
		return nil, nil
	}
	var kills []mpirt.Kill
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), "@")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("-kill %q: want rank@afterOps[@vt]", part)
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("-kill %q: bad rank: %v", part, err)
		}
		ops, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("-kill %q: bad afterOps: %v", part, err)
		}
		k := mpirt.Kill{Rank: rank, AfterOps: ops}
		if len(fields) == 3 {
			vt, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("-kill %q: bad vt: %v", part, err)
			}
			k.VT = vt
		}
		kills = append(kills, k)
	}
	return kills, nil
}

func formatKills(kills []mpirt.Kill) string {
	parts := make([]string, len(kills))
	for i, k := range kills {
		if k.VT > 0 {
			parts[i] = fmt.Sprintf("%d@%d@%g", k.Rank, k.AfterOps, k.VT)
		} else {
			parts[i] = fmt.Sprintf("%d@%d", k.Rank, k.AfterOps)
		}
	}
	return strings.Join(parts, ",")
}

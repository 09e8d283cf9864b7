package conformance

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"nbrallgather/internal/mpirt"
	"nbrallgather/internal/trace"
)

// TestChaosSchedulesPinned pins what every chaos run does, not merely
// that it passes: one FNV-64a word folds, for every matrix and fault
// case at seeds 0 and 1 under DefaultChaos, the case name, the seed,
// the error text, the recorded decision schedule's hash and the
// report's virtual time. A change to the runners, the checkers or the
// fault schedules that moves any schedule, outcome or virtual time
// moves the digest; such a change must explain the new constant. The
// constant was computed before fail-stop and link-fault cases became
// one FaultCase, with each family's own runner and checker.
func TestChaosSchedulesPinned(t *testing.T) {
	const pinned = 0x69787acf094f4d59
	matrix, err := Matrix()
	if err != nil {
		t.Fatal(err)
	}
	faults, err := FaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	cases := append(runners(matrix), runners(faults)...)
	h := fnv.New64a()
	word := func(v uint64) { h.Write([]byte(strconv.FormatUint(v, 16) + "\x00")) }
	for _, c := range cases {
		for seed := int64(0); seed < 2; seed++ {
			ch := mpirt.DefaultChaos(seed)
			s := trace.NewSchedule()
			ch.Record = s
			rep, err := c.Run(mpirt.EngineDefault, seed, ch)
			msg, vt := "", 0.0
			if err != nil {
				msg = err.Error()
			}
			if rep != nil {
				vt = rep.Time
			}
			h.Write([]byte(c.CaseName() + "\x00" + msg + "\x00"))
			word(uint64(seed))
			word(s.Hash())
			word(math.Float64bits(vt))
		}
	}
	if got := h.Sum64(); got != pinned {
		t.Errorf("chaos schedule digest %#016x over %d cases, pinned %#016x", got, len(cases), uint64(pinned))
	}
}

func runners[C Runner](cs []C) []Runner {
	out := make([]Runner, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

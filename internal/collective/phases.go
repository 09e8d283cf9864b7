package collective

import (
	"nbrallgather/internal/tags"
	"nbrallgather/internal/trace"
)

// DHPhases returns trace selectors splitting a Distance Halving
// collective into its two phases — the halving (agent relay) phase and
// the remainder ("intra-socket") phase — by tag ranges. Use with
// mpirt.Config.Trace to quantify the paper's claim that the remainder
// phase, though message-heavy, is confined to cheap local links.
func DHPhases() []trace.Phase { return dhPhases(tags.DHStep, tags.DHFinal) }

// AlltoallDHPhases returns the equivalent selectors for the Distance
// Halving alltoall.
func AlltoallDHPhases() []trace.Phase { return dhPhases(tags.A2AStep, tags.A2AFinal) }

func dhPhases(step, final int) []trace.Phase {
	return []trace.Phase{
		{Label: "halving", Select: trace.TagRange(step, step+64)},
		{Label: "remainder", Select: func(e trace.Event) bool { return e.Tag == final }},
	}
}

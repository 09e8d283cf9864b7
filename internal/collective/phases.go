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
func DHPhases() []trace.Phase {
	return []trace.Phase{
		{Label: "halving", Select: trace.TagRange(tags.DHStep, tags.DHStep+64)},
		{Label: "remainder", Select: func(e trace.Event) bool { return e.Tag == tags.DHFinal }},
	}
}

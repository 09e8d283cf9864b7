package mpirt

import "fmt"

// Engine selects which driver executes a plain (non-chaos) Run. Both
// implement the same Endpoint API, typed-error surface and fail-stop
// semantics over one blocking core (see driver), so every collective
// runs unmodified on either. A non-nil Config.Chaos selects the chaos
// driver instead, whatever Engine says.
type Engine string

const (
	// EngineDefault is the zero Config.Engine; it resolves to
	// EngineEvent.
	EngineDefault Engine = ""

	// EngineThreaded runs every rank as a free-running goroutine; each
	// runtime call holds one runtime mutex, released while the rank is
	// parked, and a count of runnable ranks detects deadlock exactly, as
	// the event loop does. Shared cost-model resources are claimed in
	// host-scheduling order, so its virtual times are not reproducible;
	// it is kept as the host-parallel oracle — the target of `go test
	// -race` and the other half of the plain differential
	// (internal/conformance) — not as a measurement path.
	EngineThreaded Engine = "threaded"

	// EngineEvent runs each rank as a coroutine of one serial loop
	// over a calendar queue keyed by virtual time with a deterministic
	// (vt, rank, seq) tie-break. One rank runs at a time, so results
	// are a pure function of the configuration, deadlock detection is
	// exact, and 100k–1M-rank phantom sweeps are affordable. Every
	// published number comes from this engine.
	EngineEvent Engine = "event"
)

// Engines lists the concrete engines, for differential sweeps.
func Engines() []Engine { return []Engine{EngineThreaded, EngineEvent} }

// ResolveEngine maps a Config.Engine value to a concrete engine.
// Unknown names are an error rather than a silent fallback.
func ResolveEngine(e Engine) (Engine, error) {
	switch e {
	case EngineThreaded, EngineEvent:
		return e, nil
	case EngineDefault:
		return EngineEvent, nil
	}
	return "", fmt.Errorf("mpirt: unknown engine %q (want %q or %q)", e, EngineThreaded, EngineEvent)
}

//go:build !race

package collective

// raceDetector reports a build under the race detector.
const raceDetector = false

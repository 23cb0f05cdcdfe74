//go:build race

package exp

// raceDetector reports whether the test binary was built with -race,
// which allocates on paths that otherwise do not.
const raceDetector = true

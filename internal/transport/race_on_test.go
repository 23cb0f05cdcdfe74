//go:build race

package transport

// raceDetector reports whether the test binary was built with -race,
// under which a time bound in microseconds says nothing.
const raceDetector = true

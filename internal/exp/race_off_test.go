//go:build !race

package exp

const raceDetector = false

//go:build race

package wire

// raceEnabled reports whether the race detector instruments this build;
// the pooled-buffer allocation counts skip under it.
const raceEnabled = true

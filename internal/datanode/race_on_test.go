//go:build race

package datanode

// raceEnabled reports the race detector is active: sync.Pool deliberately
// drops a fraction of Puts under race instrumentation, so allocation
// assertions are meaningless in that build.
const raceEnabled = true

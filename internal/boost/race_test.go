//go:build race

package boost

// raceEnabled reports that the race detector is on. sync.Pool then
// drops a random share of the items put back by design, so allocation
// pins over pooled scratch only hold in uninstrumented builds.
const raceEnabled = true

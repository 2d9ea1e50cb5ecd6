package live

import (
	"runtime"
	"sync/atomic"
)

// readCell is the lock-free read side of one node's counter: the
// protocol loop publishes (round, output) once per round and any number
// of reader goroutines snapshot the pair concurrently, with neither
// side ever blocking the other.
//
// The consistency mechanism is the dual-counter idiom of the lockfree
// SyncCounter exemplar (SNIPPETS.md snippet 1): the writer brackets the
// payload between two sequence transitions (odd while a write is in
// flight, even and advanced once it has landed), and a reader that
// observes the same even sequence on both sides of its payload loads
// knows the snapshot was not torn. With a single writer per cell no
// helping is needed — a torn read simply retries against the writer's
// next even state. All fields are atomics, so the cell is safe under
// the race detector and on weakly ordered hardware.
type readCell struct {
	seq   atomic.Uint64
	round atomic.Uint64
	value atomic.Int64
}

// publish installs the node's start-of-round observation. Only the
// owning node goroutine calls it; it never blocks and performs a
// constant number of atomic stores regardless of reader load.
func (c *readCell) publish(round uint64, value int) {
	s := c.seq.Load()
	c.seq.Store(s + 1) // odd: write in flight
	c.round.Store(round)
	c.value.Store(int64(value))
	c.seq.Store(s + 2) // even: payload consistent
}

// Read returns a consistent (round, value) snapshot, retrying while a
// publish is in flight. ok is false until the first publish (a node
// that has not completed a round yet has nothing to serve). Readers
// never block the writer: the retry loop yields but takes no lock.
func (c *readCell) Read() (round uint64, value int, ok bool) {
	for {
		s1 := c.seq.Load()
		if s1 == 0 {
			return 0, 0, false
		}
		if s1&1 == 1 {
			runtime.Gosched()
			continue
		}
		r := c.round.Load()
		v := c.value.Load()
		if c.seq.Load() == s1 {
			return r, int(v), true
		}
	}
}

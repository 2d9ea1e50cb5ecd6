package live

import (
	"sync/atomic"

	"github.com/synchcount/synchcount/internal/alg"
)

// epochArena owns every slice the round engine hands to node
// goroutines for one round: the per-receiver handoff messages, the
// shared broadcast column, the per-receiver skip and patch lists carved
// for chaos-touched receivers, the round's shared step, and the
// frame-size byte buffers backing corrupted and delayed frames.
// One arena is live per in-flight round; a ring of them (arenaRing)
// recycles the storage once every round that could still reference it —
// bounded by the schedule's maximum delay window — has completed, so a
// fault-free round allocates nothing once the ring is warm.
//
// Ownership rule: a roundMsg and every slice inside it point into the
// message's epoch. A node goroutine releases the epoch exactly once per
// received message (after merging it, or when discarding it as stale),
// and the ring refuses to reset an epoch that still has outstanding
// references — a straggler sleeping on an old round keeps its bytes
// alive while the ring swaps in a fresh arena for the new round.
type epochArena struct {
	// refs counts the outstanding node references. Every receiver
	// releases it once per round, so it sits on its own cache line,
	// away from the fields the receivers read.
	_    [64]byte
	refs atomic.Int64
	_    [56]byte

	// The shared broadcast column, built once per round: column[s] is
	// sender s's decoded state when present[s], and full reports that
	// every sender is present.
	column  []alg.State
	present []bool
	full    bool

	// The round's shared step: when stepped, next[v] is what node v
	// steps to on a view equal to the column (see Runtime.shared).
	next    []alg.State
	stepped bool

	msgs []roundMsg // msgs[v] is receiver v's handoff, sent as a pointer

	drops []int32    // per-receiver skip lists, carved sequentially
	priv  []privItem // per-receiver patch lists, carved sequentially
	bufs  [][]byte   // frameSize buffers for corrupt/held frame bytes
	used  int
}

// newEpochArena returns an empty arena for an n-node network.
func newEpochArena(n int) *epochArena {
	return &epochArena{
		column:  make([]alg.State, n),
		present: make([]bool, n),
		next:    make([]alg.State, n),
		msgs:    make([]roundMsg, n),
	}
}

// reset recycles the arena for a new round. Growth may have relocated
// the patch arrays mid-round (older carved slices keep the retired
// array alive on their own); reset keeps whatever backing survived,
// so steady state settles at the high-water capacity and stays there.
func (a *epochArena) reset() {
	clear(a.present)
	a.full = false
	a.stepped = false
	a.drops = a.drops[:0]
	a.priv = a.priv[:0]
	a.used = 0
}

// grab returns a frameSize byte buffer owned by this epoch.
func (a *epochArena) grab() []byte {
	if a.used == len(a.bufs) {
		a.bufs = append(a.bufs, make([]byte, frameSize))
	}
	b := a.bufs[a.used]
	a.used++
	return b
}

// corrupt returns a corrupted copy of a full frame in an epoch buffer,
// leaving the shared original intact.
func (a *epochArena) corrupt(fr []byte, word, space uint64) []byte {
	out := a.grab()
	copy(out, fr)
	corruptFrame(out, word, space)
	return out
}

// acquire takes k node references to the epoch; release drops one.
func (a *epochArena) acquire(k int) { a.refs.Add(int64(k)) }
func (a *epochArena) release()      { a.refs.Add(-1) }

// arenaRing cycles depth epochs so that an arena is only reset once
// every round that may still hold references into it — the current
// round plus the maximum chaos delay window — has retired.
type arenaRing struct {
	epochs []*epochArena
	n      int
}

func newArenaRing(depth, n int) *arenaRing {
	r := &arenaRing{epochs: make([]*epochArena, depth), n: n}
	for i := range r.epochs {
		r.epochs[i] = newEpochArena(n)
	}
	return r
}

// epochFor returns the recycled arena for the round. If a straggler
// still references the slot's previous tenant (its refcount is not yet
// zero), the old arena is retired to the garbage collector — the
// straggler's slices keep it alive — and a fresh one takes the slot,
// so recycling never races a slow reader.
func (r *arenaRing) epochFor(round uint64) *epochArena {
	i := int(round % uint64(len(r.epochs)))
	a := r.epochs[i]
	if a.refs.Load() != 0 {
		a = newEpochArena(r.n)
		r.epochs[i] = a
	}
	a.reset()
	return a
}

package live

import (
	"math/rand"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// ctrlDepth is the control-channel backlog a straggler may accumulate
// before the synchroniser starts dropping its handoffs.
const ctrlDepth = 8

// nodeSeed derives the RNG seed of one node incarnation from the run
// seed via SplitMix64, so crash/restart cycles draw fresh — but
// reproducible — arbitrary states.
func nodeSeed(seed int64, node, inc int) int64 {
	z := uint64(seed) + uint64(node+1)*0x9e3779b97f4a7c15 + uint64(inc)*0xd1342543de82ef95
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// incarnate draws the arbitrary initial memory of one node incarnation:
// its state and its view of every peer, from the incarnation seed. A
// restart is exactly the transient fault — arbitrary memory, correct
// behaviour from now on — that the self-stabilisation bound quantifies
// over.
func (rt *Runtime) incarnate(id, inc int) (alg.State, *rand.Rand, []alg.State) {
	rng := rand.New(rand.NewSource(nodeSeed(rt.cfg.Seed, id, inc)))
	state := alg.UniformState(rng, rt.space)
	lastSeen := make([]alg.State, rt.n)
	for i := range lastSeen {
		lastSeen[i] = alg.UniformState(rng, rt.space)
	}
	return state, rng, lastSeen
}

// sleepOrQuit blocks for d unless the quit channel closes first.
func sleepOrQuit(quit chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	select {
	case <-t.C:
		return true
	case <-quit:
		t.Stop()
		return false
	}
}

// nodeLoop is one live node: a registry algorithm run as a goroutine,
// one handoff token per round. It merges the round's shared broadcast
// column (minus its drops list) and its private patches — raw patch
// bytes go through decodeFrame, and frames that fail it count as loss —
// into its view of every peer (peers it has not heard from this round
// are stepped on their last authenticated state), then steps on that
// view in place and eagerly writes the next round's frame into its
// slot and commits it (arrive). The synchroniser has read the slot for
// the previous round before it delivered the handoff that triggers the
// overwrite, so the slot's buffer is reused without a copy.
//
// When the merge copied the full column and accepted no private patch
// that changes it, and the synchroniser stepped that column for the
// round, the view is exactly the column and the node takes its entry
// of the shared step instead of calling Step. The view is still
// updated, so a later round that steps on it sees the same peers.
//
// A peer's state is accepted when its frame's round is no older than
// the newest already accepted from that peer. seen[p] stamps that round
// as round+1 (0 = never heard); a merge of a full column stamps every
// peer at once by raising floor instead, so the effective stamp is
// max(seen[p], floor), and high bounds every stamp so far — a full
// column may be copied wholesale only when no peer is stamped past it.
//
// The hot path runs on plain channel operations, no selects: shutdown
// and crash arrive in-band as a nil (poison) token (the synchroniser's
// len-guarded handoff keeps one slot free, so the poison send never
// blocks), and FIFO order guarantees every handoff delivered before the
// poison is processed first — the decode accounting a crash interrupts
// is therefore deterministic. The commit never blocks either: it is two
// CASes, plus a send on the one-slot wake channel for the arrival that
// completes the round. h.quit only interrupts stall sleeps.
func (rt *Runtime) nodeLoop(h *nodeHandle, state alg.State, rng *rand.Rand, lastSeen []alg.State, round uint64, stall time.Duration) {
	defer rt.wg.Done()
	n, a, space := rt.n, rt.cfg.Alg, rt.space
	seen := make([]uint64, n)
	var floor, high, sharedSteps uint64
	defer func() { rt.sharedSteps.Add(sharedSteps) }()

	accept := func(from int, rnd uint64, st alg.State) bool {
		t := rnd + 1
		if from == h.id || t < seen[from] || t < floor {
			return false
		}
		seen[from] = t
		lastSeen[from] = st
		high = max(high, t)
		return true
	}

	// merge reports whether the view it leaves is exactly the column
	// (but for the node's own entry, which the caller checks): the full
	// column was copied, and no private patch it accepted on top holds
	// another state. A clean duplicate repeats the column's entry and a
	// delayed frame is older than the column, so both leave it whole;
	// a forged frame that authenticates with another state does not.
	merge := func(m *roundMsg) (whole bool) {
		ep, t := m.epoch, m.round+1
		if ep.full && len(m.drops) == 0 && high <= t {
			copy(lastSeen, ep.column)
			floor, high = t, t
			whole = true
		} else {
			// The router lists only present senders in drops, in
			// ascending order, so one cursor walks both.
			di := 0
			for s, ok := range ep.present {
				if !ok {
					continue
				}
				if di < len(m.drops) && int(m.drops[di]) == s {
					di++
					continue
				}
				accept(s, m.round, ep.column[s])
			}
		}
		for _, p := range m.priv {
			from, rnd, st := int(p.entry.from), p.entry.round, p.entry.state
			if p.raw != nil {
				var err error
				if from, rnd, st, err = decodeFrame(p.raw, n, space); err != nil {
					// Untrusted bytes that fail validation are loss,
					// not a crash: count loudly, step on the last good
					// state.
					rt.decodeErrors.Add(1)
					continue
				}
			}
			if accept(from, rnd, st) && st != ep.column[from] {
				whole = false
			}
		}
		return whole
	}

	send := func() {
		h.out = a.Output(h.id, state)
		h.frame = appendFrame(h.frame[:0], h.id, round, state, space)
		rt.arrive(h, round)
	}

	if stall > 0 && !sleepOrQuit(h.quit, stall) {
		return
	}
	send()
	for {
		m := <-h.ch
		poisoned := m == nil
		// Collapse any backlog: a straggler rejoins at the newest round
		// instead of replaying rounds it already missed. A poison found
		// behind the newest real handoff means crash: that handoff is
		// still processed in full — its broadcast is the crash-round
		// artefact, never read and never counted stale — so decode
		// accounting stays deterministic.
		for !poisoned && len(h.ch) > 0 {
			m2 := <-h.ch
			if m2 == nil {
				poisoned = true
				break
			}
			rt.staleBatches.Add(1)
			m.epoch.release()
			m = m2
		}
		if m == nil {
			return
		}
		if m.stall > 0 && !sleepOrQuit(h.quit, m.stall) {
			m.epoch.release()
			return
		}
		// The shared entry is read before the release, which lets the
		// ring recycle the epoch.
		ep := m.epoch
		shared := merge(m) && ep.stepped && ep.column[h.id] == state
		var next alg.State
		if shared {
			next = ep.next[h.id]
		}
		final := m.final
		round = m.round + 1
		ep.release()
		if final {
			return
		}
		lastSeen[h.id] = state
		if shared {
			state = next
			sharedSteps++
		} else {
			state = a.Step(h.id, lastSeen, rng)
		}
		send()
		if poisoned {
			return
		}
	}
}

// newNodeHandle returns the handle of a node incarnation whose slot is
// open for firstRound.
func newNodeHandle(id int, firstRound uint64) *nodeHandle {
	h := &nodeHandle{
		id:    id,
		ch:    make(chan *roundMsg, ctrlDepth+1), // +1: reserved poison slot
		quit:  make(chan struct{}),
		frame: make([]byte, 0, frameSize),
	}
	h.stamp.Store(stamp(firstRound, slotOpen))
	return h
}

// spawn starts incarnation inc of a node, joining at firstRound (0 at
// boot, the restart round after a crash), whose gate must be open. The
// node publishes and broadcasts its arbitrary initial state
// immediately.
func (rt *Runtime) spawn(id, inc int, firstRound uint64, stall time.Duration) *nodeHandle {
	state, rng, lastSeen := rt.incarnate(id, inc)
	h := newNodeHandle(id, firstRound)
	rt.wg.Add(1)
	go rt.nodeLoop(h, state, rng, lastSeen, firstRound, stall)
	return h
}

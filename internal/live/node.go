package live

import (
	"math/rand"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// sendMsg is a node's broadcast for one round, collected by the
// synchroniser: it doubles as the node's done marker for the round
// before.
type sendMsg struct {
	node, inc int
	round     uint64
	out       int
	frame     []byte
}

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
func (rt *Runtime) incarnate(id, inc int) (alg.State, *rand.Rand, []alg.State, []uint64, []bool) {
	rng := rand.New(rand.NewSource(nodeSeed(rt.cfg.Seed, id, inc)))
	state := alg.UniformState(rng, rt.space)
	lastSeen := make([]alg.State, rt.n)
	lastRound := make([]uint64, rt.n)
	heard := make([]bool, rt.n)
	for i := range lastSeen {
		lastSeen[i] = alg.UniformState(rng, rt.space)
	}
	return state, rng, lastSeen, lastRound, heard
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

// nodeLoop is one live node: an unmodified registry algorithm run as a
// goroutine, one channel hop per round. It merges the shared decoded
// base (minus its drops list) and its private patches — raw patch bytes
// go through decodeFrame, and frames that fail it count as loss — into
// its view of every peer (peers it has not heard from this round are
// stepped on their last authenticated state), then steps, publishes to
// its lock-free read cell, and eagerly broadcasts the next round's
// frame into its one persistent buffer. The router is provably done
// with the previous frame bytes before the handoff that triggers the
// overwrite was delivered, so the buffer is reused without a copy.
//
// The hot path runs on plain channel operations, no selects: shutdown
// and crash arrive in-band as a poison roundMsg (the synchroniser's
// len-guarded handoff keeps one slot free, so the poison send never
// blocks), and FIFO order guarantees every handoff delivered before the
// poison is processed first — the decode accounting a crash interrupts
// is therefore deterministic. The broadcast send is plain too: each
// incarnation has at most one frame in flight (the collect phase
// consumes or discards it before the handoff that triggers the next),
// so sendCh, sized 4n, cannot fill. h.quit only interrupts stall
// sleeps.
func (rt *Runtime) nodeLoop(h *nodeHandle, state alg.State, rng *rand.Rand, lastSeen []alg.State, lastRound []uint64, heard []bool, round uint64, stall time.Duration) {
	defer rt.wg.Done()
	n, a, space := rt.n, rt.cfg.Alg, rt.space
	recv := make([]alg.State, n)
	buf := make([]byte, 0, frameSize)

	merge := func(m roundMsg) {
		di := 0
		for _, e := range m.base {
			for di < len(m.drops) && m.drops[di] < e.from {
				di++
			}
			if di < len(m.drops) && m.drops[di] == e.from {
				continue
			}
			from := int(e.from)
			if from == h.id {
				continue
			}
			if !heard[from] || e.round >= lastRound[from] {
				heard[from] = true
				lastRound[from] = e.round
				lastSeen[from] = e.state
			}
		}
		for _, p := range m.priv {
			var from int
			var rnd uint64
			var st alg.State
			if p.raw != nil {
				var err error
				from, rnd, st, err = decodeFrame(p.raw, n, space)
				if err != nil {
					// Untrusted bytes that fail validation are loss, not
					// a crash: count loudly, step on the last good state.
					rt.decodeErrors.Add(1)
					continue
				}
			} else {
				from, rnd, st = int(p.entry.from), p.entry.round, p.entry.state
			}
			if from == h.id {
				continue
			}
			if !heard[from] || rnd >= lastRound[from] {
				heard[from] = true
				lastRound[from] = rnd
				lastSeen[from] = st
			}
		}
	}

	send := func() {
		out := a.Output(h.id, state)
		rt.cells[h.id].publish(round, out)
		buf = appendFrame(buf[:0], h.id, round, state, space)
		rt.sendCh <- sendMsg{node: h.id, inc: h.inc, round: round, out: out, frame: buf}
	}

	if stall > 0 && !sleepOrQuit(h.quit, stall) {
		return
	}
	send()
	for {
		m := <-h.ch
		poisoned := m.poison
		// Collapse any backlog: a straggler rejoins at the newest round
		// instead of replaying rounds it already missed. A poison found
		// behind the newest real handoff means crash: that handoff is
		// still processed in full — its broadcast is the crash-round
		// artefact the synchroniser's tombstone discards — so decode
		// accounting stays deterministic.
		for !poisoned && len(h.ch) > 0 {
			m2 := <-h.ch
			if m2.poison {
				poisoned = true
				break
			}
			rt.staleBatches.Add(1)
			m.epoch.release()
			m = m2
		}
		if m.poison {
			return
		}
		if m.stall > 0 && !sleepOrQuit(h.quit, m.stall) {
			m.epoch.release()
			return
		}
		merge(m)
		final := m.final
		round = m.round + 1
		m.epoch.release()
		if final {
			return
		}
		copy(recv, lastSeen)
		recv[h.id] = state
		state = a.Step(h.id, recv, rng)
		send()
		if poisoned {
			return
		}
	}
}

// spawn starts incarnation inc of a node, joining at firstRound (0 at
// boot, the restart round after a crash). The node publishes and
// broadcasts its arbitrary initial state immediately.
func (rt *Runtime) spawn(id, inc int, firstRound uint64, stall time.Duration) *nodeHandle {
	state, rng, lastSeen, lastRound, heard := rt.incarnate(id, inc)
	h := &nodeHandle{
		id:   id,
		inc:  inc,
		ch:   make(chan roundMsg, ctrlDepth+1), // +1: reserved poison slot
		quit: make(chan struct{}),
	}
	rt.wg.Add(1)
	go rt.nodeLoop(h, state, rng, lastSeen, lastRound, heard, firstRound, stall)
	return h
}

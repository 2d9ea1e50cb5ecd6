package live

import (
	"math/rand"
	"testing"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// obs is one OnRound observation; the differential suite compares the
// full per-round streams, not just the final report, so a divergence is
// caught at the round it first appears.
type obs struct {
	round  uint64
	agree  bool
	common int
	onTime int
}

// heldFrame is a delayed frame awaiting its delivery round.
type heldFrame struct {
	to    int
	frame []byte
}

// lockstepNode is one node incarnation's memory in the lockstep model.
type lockstepNode struct {
	state     alg.State
	rng       *rand.Rand
	lastSeen  []alg.State
	lastRound []uint64
	heard     []bool
}

// lockstep is the semantic model Runtime.Run is pinned to: the same
// network, schedule and algorithm, run in one goroutine with no
// channels, timers or arenas. Each round it fires the schedule's node
// events, observes every live node's output, routes every broadcast
// through the chaos hash decisions in sender, receiver, window order,
// and has every receiver decode its own frames — delivered in routing
// order, then the frames delayed into this round — before it steps.
// It returns the report with its wall-clock fields zeroed and the
// per-round observation stream.
//
// Stall chaos is wall-clock and has no lockstep meaning; the model
// rejects it.
func lockstep(t *testing.T, cfg Config) (*Report, []obs) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, a, space, sched := rt.n, cfg.Alg, rt.space, cfg.Schedule
	rep := &Report{}
	track := newTracker(a.C(), cfg.Window)
	spawn := func(id, inc int) *lockstepNode {
		state, rng, lastSeen := rt.incarnate(id, inc)
		return &lockstepNode{state, rng, lastSeen, make([]uint64, n), make([]bool, n)}
	}
	nodes := make([]*lockstepNode, n)
	for i := range nodes {
		nodes[i] = spawn(i, 0)
	}
	var (
		trace   []obs
		windows []*Window
		seed    int64
		held    = map[uint64][]heldFrame{}
		frames  = make([][]byte, n)
		inbox   = make([][][]byte, n)
		recv    = make([]alg.State, n)
	)
	if sched != nil {
		seed = sched.Seed
	}
	for round := uint64(0); round < rt.horizon; round++ {
		if sched != nil {
			for _, ev := range sched.eventsAt(round) {
				switch ev.Kind {
				case eventCrash:
					if nodes[ev.Node] != nil {
						nodes[ev.Node] = nil
						rep.Crashes++
						track.fault(round, ev.Burst)
					}
				case eventRestart:
					if nodes[ev.Node] == nil {
						nodes[ev.Node] = spawn(ev.Node, int(rep.Restarts)+1)
						rep.Restarts++
						track.fault(round, ev.Burst)
					}
				case eventStall:
					t.Fatalf("lockstep model: stall chaos at round %d is wall-clock behaviour", round)
				}
			}
		}

		// Observe the start-of-round outputs and broadcast.
		agree, common, onTime := true, -1, 0
		for i, nd := range nodes {
			frames[i] = nil
			if nd == nil {
				continue
			}
			out := a.Output(i, nd.state)
			if common == -1 {
				common = out
			} else if out != common {
				agree = false
			}
			onTime++
			frames[i] = appendFrame(nil, i, round, nd.state, space)
		}
		if onTime == 0 {
			t.Fatalf("lockstep model: round %d: no live nodes remain", round)
		}
		track.observe(round, agree, common)
		trace = append(trace, obs{round, agree, common, onTime})
		rep.Rounds = round + 1

		// Route every broadcast through the chaos layer.
		for v := range inbox {
			inbox[v] = inbox[v][:0]
		}
		windows = windows[:0]
		if sched != nil {
			windows = sched.windowsAt(round, windows)
		}
		interferedBurst := -1
		for s, fr := range frames {
			if fr == nil {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || nodes[v] == nil {
					continue
				}
				out, delivered := fr, true
				for _, w := range windows {
					// A suppressed or dropped frame is gone: later windows
					// neither touch nor count its edge.
					if w.Group != nil {
						if w.Group[s] != w.Group[v] {
							rep.Suppressed++
							interferedBurst = w.Burst
							delivered = false
							break
						}
						continue
					}
					if w.Drop > 0 && chaosHash(seed, round, s, v, saltDrop) < w.Drop {
						rep.Dropped++
						interferedBurst = w.Burst
						delivered = false
						break
					}
					if w.Corrupt > 0 && chaosHash(seed, round, s, v, saltCorrupt) < w.Corrupt {
						out = append([]byte(nil), out...)
						corruptFrame(out, chaosWord(seed, round, s, v), space)
						rep.Corrupted++
						interferedBurst = w.Burst
					}
					if w.Delay > 0 && chaosHash(seed, round, s, v, saltDelay) < w.Delay {
						held[round+w.DelayBy] = append(held[round+w.DelayBy], heldFrame{to: v, frame: out})
						rep.Delayed++
						interferedBurst = w.Burst
						delivered = false
						continue
					}
					if w.Dup > 0 && chaosHash(seed, round, s, v, saltDup) < w.Dup {
						inbox[v] = append(inbox[v], out)
						rep.Duplicated++
						interferedBurst = w.Burst
					}
				}
				if delivered {
					inbox[v] = append(inbox[v], out)
				}
			}
		}
		for _, hf := range held[round] {
			if nodes[hf.to] != nil {
				inbox[hf.to] = append(inbox[hf.to], hf.frame)
			}
		}
		delete(held, round)
		if interferedBurst >= 0 {
			track.fault(round, interferedBurst)
		}

		// Every live node decodes its frames and steps.
		for v, nd := range nodes {
			if nd == nil {
				continue
			}
			for _, fr := range inbox[v] {
				from, rnd, st, err := decodeFrame(fr, n, space)
				if err != nil {
					rep.DecodeErrors++
					continue
				}
				if from == v {
					continue
				}
				if !nd.heard[from] || rnd >= nd.lastRound[from] {
					nd.heard[from] = true
					nd.lastRound[from] = rnd
					nd.lastSeen[from] = st
				}
			}
			copy(recv, nd.lastSeen)
			recv[v] = nd.state
			nd.state = a.Step(v, recv, nd.rng)
		}
	}
	rep = track.finish(rep, time.Now())
	rep.Elapsed, rep.RoundsPerSec = 0, 0
	return rep, trace
}

package live

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// The round engine. Per round the synchroniser collects every live
// node's broadcast, routes it through the chaos schedule and hands each
// node one message to merge and step on. Four ideas keep it cheap
// while the protocol it implements stays the plain lockstep reading in
// lockstep_test.go, which the differential suite pins it to byte for
// byte:
//
//  1. Decode memo: the router CRC-checks and decodes each on-time
//     broadcast once, and every receiver merges the same immutable
//     result instead of decoding n-1 frames itself. Chaos-touched
//     edges are expressed as per-receiver patches: a drops list
//     (senders whose memoised state the receiver must skip) plus a
//     priv list of extra deliveries — router-verified entries for
//     clean duplicates/delays, raw bytes for corrupted frames, which
//     the receiver still CRC-checks itself (the untrusted-transport
//     invariant: only bytes that never left the in-process channel are
//     decode-memoised).
//  2. Epoch arena: every slice handed to a node belongs to the round's
//     epochArena and is recycled once the rounds that could still hold
//     it (bounded by the schedule's max delay) have retired, so a
//     fault-free round allocates nothing.
//  3. One handoff per node per round: the node's send doubles as the
//     previous round's done marker (it can only send round r+1 after
//     merging round r), so the synchroniser delivers one roundMsg and
//     collects one sendMsg per node per round, with non-blocking
//     handoffs, a per-round deadline, and stragglers rejoining at the
//     newest round.
//  4. Dense broadcast column: the memo's output is one per-sender state
//     vector in the epoch plus a presence record, admitting only frames
//     stamped with the collected round, so every memoised entry carries
//     the same round. In a fault-free round — every sender present, no
//     drops — a receiver's merge is one copy of the column into its
//     view and one round stamp, and it steps on that view in place;
//     otherwise it walks the same column past absent and dropped
//     senders before applying its private patches.

// wireEntry is one router-decoded broadcast carried as a private
// patch: a clean duplicate or a delayed delivery.
type wireEntry struct {
	from  int32
	round uint64
	state alg.State
}

// privItem is one receiver-private extra delivery. Exactly one of the
// two fields is set: raw carries chaos-touched bytes the receiver must
// validate itself; entry carries a router-verified clean frame (a
// duplicate or a delayed delivery of a decode-memoised broadcast).
type privItem struct {
	raw   []byte
	entry wireEntry
}

// roundMsg is the per-round handoff from the synchroniser to a node:
// this receiver's patches and the epoch owning every slice in the
// message, whose broadcast column is the round's shared base. The
// receiver releases the epoch exactly once.
//
// A poison message (all other fields zero) is the in-band shutdown and
// crash signal: it lets the node's receive be a plain channel operation
// instead of a select, and FIFO ordering makes crash accounting exact —
// handoffs delivered before the poison are processed, nothing after it
// is. The handoff path keeps one channel slot free (the len guard in
// the delivery loop), so the single poison send can never block.
type roundMsg struct {
	round  uint64
	stall  time.Duration
	final  bool
	poison bool
	drops  []int32
	priv   []privItem
	epoch  *epochArena
}

// nodeHandle is the synchroniser's view of one node incarnation.
type nodeHandle struct {
	id, inc int
	ch      chan roundMsg
	quit    chan struct{}
}

// heldEntry is a delayed delivery waiting in the held ring. Raw bytes
// point into the origin round's epoch and are copied into the delivery
// round's epoch when they finally ship, so a straggler can never read
// an arena slot the ring has already recycled.
type heldEntry struct {
	to   int32
	item privItem
}

// rearm readies a shared timer for a fresh deadline, draining a stale
// expiry if the previous round consumed or abandoned one.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// run drives the network with the round engine. Chaos decisions are
// pure hashes of (seed, round, link), walked in sender/receiver/window
// order, so the injected timeline — and with it the whole report —
// replays identically on the same seed.
func (rt *Runtime) run(ctx context.Context) (*Report, error) {
	sched := rt.cfg.Schedule
	rep := &Report{}
	track := newTracker(rt.cfg.Alg.C(), rt.cfg.Window)

	depth := int(rt.maxDelay) + 2
	ring := newArenaRing(depth, rt.n)
	held := make([][]heldEntry, depth)

	var seed int64
	if sched != nil {
		seed = sched.Seed
	}

	// stallsAt loads the stall durations scheduled for a round into
	// stallFor. The pipeline has no start message to carry a stall, so
	// the sleep rides the handoff of the round before (or the spawn, for
	// a node joining at that round); the Stalls counter and fault
	// tracking still happen at the scheduled round.
	stallFor := make([]time.Duration, rt.n)
	stallsAt := func(round uint64) {
		for i := range stallFor {
			stallFor[i] = 0
		}
		if sched == nil {
			return
		}
		for _, ev := range sched.eventsAt(round) {
			if ev.Kind == EventStall {
				stallFor[ev.Node] = ev.Stall
			}
		}
	}

	handles := make([]*nodeHandle, rt.n)
	stallsAt(0)
	for i := range handles {
		handles[i] = rt.spawn(i, 0, 0, stallFor[i])
	}
	defer func() {
		for _, h := range handles {
			if h != nil {
				close(h.quit)
				h.ch <- roundMsg{poison: true}
			}
		}
		rt.wg.Wait()
		rep.DecodeErrors = rt.decodeErrors.Load()
		rep.StaleBatches = rt.staleBatches.Load()
	}()

	var (
		gotSend  = make([]sendMsg, rt.n)
		haveSend = make([]bool, rt.n)
		// expect marks nodes whose previous-round handoff was delivered
		// (or that were just spawned): exactly the nodes whose send the
		// collect phase waits for.
		expect = make([]bool, rt.n)
		// deadInc/deadRound tombstone the last crash per node: a crashed
		// node's pipelined eager send for the crash round is an artefact
		// of the pipeline (the node was dead for that round), so it is
		// discarded without counting.
		deadInc   = make([]int, rt.n)
		deadRound = make([]uint64, rt.n)

		scratchDrops = make([][]int32, rt.n)
		scratchPriv  = make([][]privItem, rt.n)
		windows      []*Window
	)
	for i := range deadInc {
		deadInc[i] = -1
	}
	for i := range expect {
		expect[i] = true
	}
	timer := time.NewTimer(rt.timeout)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	start := time.Now()
	for round := uint64(0); round < rt.horizon; round++ {
		if err := ctx.Err(); err != nil {
			return track.finish(rep, start), err
		}
		if rt.cfg.WallBudget > 0 && time.Since(start) >= rt.cfg.WallBudget {
			rep.BudgetExhausted = true
			break
		}

		ep := ring.epochFor(round)

		// Node-level chaos fires at the round boundary, in schedule
		// order. stallFor still holds
		// this round's stalls (loaded during the previous delivery
		// phase), which restart spawns consume.
		if sched != nil {
			for _, ev := range sched.eventsAt(round) {
				switch ev.Kind {
				case EventCrash:
					if h := handles[ev.Node]; h != nil {
						close(h.quit)
						h.ch <- roundMsg{poison: true}
						handles[ev.Node] = nil
						deadInc[ev.Node] = h.inc
						deadRound[ev.Node] = round
						rep.Crashes++
						track.fault(round, ev.Burst)
					}
				case EventRestart:
					if handles[ev.Node] == nil {
						handles[ev.Node] = rt.spawn(ev.Node, int(rep.Restarts)+1, round, stallFor[ev.Node])
						expect[ev.Node] = true
						rep.Restarts++
						track.fault(round, ev.Burst)
					}
				case EventStall:
					if handles[ev.Node] != nil {
						rep.Stalls++
						track.fault(round, ev.Burst)
					}
				}
			}
		}
		liveCount := 0
		for _, h := range handles {
			if h != nil {
				liveCount++
			}
		}
		if liveCount == 0 {
			return track.finish(rep, start), fmt.Errorf("live: round %d: no live nodes remain — the schedule crashed the whole network", round)
		}

		// Collect this round's broadcasts: one message per node whose
		// handoff (or spawn) landed — the send doubles as the previous
		// round's done marker.
		expected := 0
		for i, h := range handles {
			if h != nil && expect[i] {
				expected++
			}
		}
		if expected == 0 {
			return track.finish(rep, start), fmt.Errorf("live: round %d: all %d live nodes have fallen more than %d rounds behind the synchroniser", round, liveCount, ctrlDepth)
		}
		for i := range haveSend {
			haveSend[i] = false
		}
		onTime := 0
		armed := false
	collect:
		for onTime < expected {
			// Fast path: in steady state the next send is already queued,
			// and a non-blocking receive is far cheaper than arming the
			// three-way select. On a miss, yield once — the senders are
			// typically runnable and one scheduler pass away, and letting
			// them flush as a batch avoids a park/unpark ping-pong per
			// message (a send to a parked receiver would re-run this loop
			// after every single frame).
			var m sendMsg
			got := false
			select {
			case m = <-rt.sendCh:
				got = true
			default:
				runtime.Gosched()
				select {
				case m = <-rt.sendCh:
					got = true
				default:
				}
			}
			if !got {
				// The deadline timer is armed lazily, on the first real
				// park of the round: the fast path never pays the timer
				// locks, and in a healthy round the timer is never armed
				// at all. The deadline still bounds every slow round.
				if !armed {
					rearm(timer, rt.timeout)
					armed = true
				}
				select {
				case m = <-rt.sendCh:
				case <-timer.C:
					break collect
				case <-ctx.Done():
					return track.finish(rep, start), ctx.Err()
				}
			}
			h := handles[m.node]
			switch {
			case h != nil && m.inc == h.inc && m.round == round && !haveSend[m.node]:
				gotSend[m.node] = m
				haveSend[m.node] = true
				onTime++
			case m.inc == deadInc[m.node] && m.round == deadRound[m.node]:
				// Crash-round artefact of the pipeline; see tombstone.
			default:
				rep.StaleMessages++
			}
		}
		rep.TimedOutRounds += uint64(expected - onTime)
		if onTime == 0 {
			return track.finish(rep, start), fmt.Errorf("live: round %d: all %d live nodes missed the %v round deadline — aborting the run instead of stalling the synchroniser", round, expected, rt.timeout)
		}

		// Observe the start-of-round outputs of the on-time live nodes.
		agree := true
		common := -1
		for i := 0; i < rt.n; i++ {
			if !haveSend[i] {
				continue
			}
			if common == -1 {
				common = gotSend[i].out
			} else if gotSend[i].out != common {
				agree = false
			}
		}
		track.observe(round, agree, common)
		if rt.cfg.OnRound != nil {
			rt.cfg.OnRound(round, agree, common, onTime)
		}
		rep.Rounds = round + 1

		// Decode memo: validate each on-time broadcast once into the
		// round's column. A frame that fails here, or that is not
		// stamped with its sender and this round (both unreachable for
		// honest in-process senders), is routed raw to every receiver
		// instead, so each receiver still accounts its own decode.
		anyBad := false
		ep.full = true
		for s := 0; s < rt.n; s++ {
			if !haveSend[s] {
				ep.full = false
				continue
			}
			if from, rnd, st, err := decodeFrame(gotSend[s].frame, rt.n, rt.space); err == nil && from == s && rnd == round {
				ep.column[s] = st
				ep.present[s] = true
			} else {
				anyBad = true
				ep.full = false
			}
		}

		// Route through the chaos layer: the lockstep model's hash
		// decisions in its sender/receiver/window order, expressed as
		// column + patches instead of per-edge frame slices. Untouched
		// edges cost nothing.
		for v := 0; v < rt.n; v++ {
			scratchDrops[v] = scratchDrops[v][:0]
			scratchPriv[v] = scratchPriv[v][:0]
		}
		windows = windows[:0]
		if sched != nil {
			windows = sched.windowsAt(round, windows)
		}
		interferedBurst := -1
		if len(windows) > 0 || anyBad {
			for s := 0; s < rt.n; s++ {
				memo := ep.present[s]
				if !haveSend[s] || (memo && len(windows) == 0) {
					continue
				}
				// A raw-routed frame is copied into the epoch once: the
				// sender reuses its buffer next round, receivers may
				// read the patch later than that.
				base0 := gotSend[s].frame
				if !memo {
					c := ep.grab()
					copy(c, base0)
					base0 = c
				}
				entry := wireEntry{from: int32(s), round: round, state: ep.column[s]}
				for v := 0; v < rt.n; v++ {
					if v == s || handles[v] == nil {
						continue
					}
					cur := base0
					clean := memo
					delivered := true
					touched := false
					for _, w := range windows {
						if w.Group != nil {
							if w.Group[s] != w.Group[v] {
								rep.Suppressed++
								interferedBurst = w.Burst
								delivered = false
								touched = true
							}
							continue
						}
						if w.Drop > 0 && chaosHash(seed, round, s, v, saltDrop) < w.Drop {
							rep.Dropped++
							interferedBurst = w.Burst
							delivered = false
							touched = true
							continue
						}
						if w.Corrupt > 0 && chaosHash(seed, round, s, v, saltCorrupt) < w.Corrupt {
							cur = ep.corrupt(cur, chaosWord(seed, round, s, v), rt.space)
							clean = false
							rep.Corrupted++
							interferedBurst = w.Burst
							touched = true
						}
						if w.Delay > 0 && chaosHash(seed, round, s, v, saltDelay) < w.Delay {
							it := privItem{}
							if clean {
								it.entry = entry
							} else {
								it.raw = cur
							}
							slot := (round + w.DelayBy) % uint64(depth)
							held[slot] = append(held[slot], heldEntry{to: int32(v), item: it})
							rep.Delayed++
							interferedBurst = w.Burst
							delivered = false
							touched = true
							continue
						}
						if w.Dup > 0 && chaosHash(seed, round, s, v, saltDup) < w.Dup {
							it := privItem{}
							if clean {
								it.entry = entry
							} else {
								it.raw = cur
							}
							scratchPriv[v] = append(scratchPriv[v], it)
							rep.Duplicated++
							interferedBurst = w.Burst
							touched = true
						}
					}
					if !touched && memo {
						continue // untouched edge: the column delivers it
					}
					if delivered && clean {
						continue // clean duplicates only: column stands, dups queued
					}
					if memo {
						scratchDrops[v] = append(scratchDrops[v], int32(s))
					}
					if delivered {
						scratchPriv[v] = append(scratchPriv[v], privItem{raw: cur})
					}
				}
			}
		}
		slot := round % uint64(depth)
		if len(held[slot]) > 0 {
			for _, he := range held[slot] {
				if handles[he.to] == nil {
					continue
				}
				it := he.item
				if it.raw != nil {
					// Re-home the bytes in the delivery round's epoch:
					// the origin epoch may recycle before a straggler
					// reads this patch.
					c := ep.grab()
					copy(c, it.raw)
					it.raw = c
				}
				scratchPriv[he.to] = append(scratchPriv[he.to], it)
			}
			held[slot] = held[slot][:0]
		}
		if interferedBurst >= 0 {
			track.fault(round, interferedBurst)
		}

		// Deliver the round handoffs. Patch scratch is copied into the
		// epoch so every slice a node sees shares the epoch's lifetime;
		// next round's stalls ride along (loaded here, consumed above by
		// restart spawns too).
		stallsAt(round + 1)
		final := round+1 == rt.horizon
		for v, h := range handles {
			if h == nil {
				continue
			}
			msg := roundMsg{
				round: round,
				stall: stallFor[v],
				final: final,
				epoch: ep,
			}
			if d := scratchDrops[v]; len(d) > 0 {
				lo := len(ep.drops)
				ep.drops = append(ep.drops, d...)
				msg.drops = ep.drops[lo:len(ep.drops):len(ep.drops)]
			}
			if p := scratchPriv[v]; len(p) > 0 {
				lo := len(ep.priv)
				ep.priv = append(ep.priv, p...)
				msg.priv = ep.priv[lo:len(ep.priv):len(ep.priv)]
			}
			// The len guard replaces a non-blocking select: this loop is
			// the channel's only sender, so the occupancy it reads can
			// only shrink underneath it, and a plain send below the cap
			// never blocks. Stopping one short of capacity reserves the
			// last slot for the poison message.
			if len(h.ch) >= ctrlDepth {
				rep.ControlDrops++
				expect[v] = false
				continue
			}
			ep.acquire()
			h.ch <- msg
			expect[v] = true
		}
	}
	return track.finish(rep, start), nil
}

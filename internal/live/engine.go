package live

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// The round engine. Per round the synchroniser collects every live
// node's broadcast, routes it through the chaos schedule and hands each
// node one message to merge and step on. Five ideas keep it cheap
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
//  3. One wake-up per round: each node incarnation writes its
//     broadcast into its own slot and commits it with one CAS on the
//     slot's stamp; the send doubles as the previous round's done
//     marker (a node can only send round r+1 after merging round r).
//     A per-round arrival gate counts the commits, and the arrival
//     that completes the expected count wakes the synchroniser through
//     a one-slot channel — the only collect-side wake-up of a healthy
//     round. The synchroniser then reads the slots in place. Delivery
//     is one pointer-sized token per node into the round's epoch. A
//     per-round deadline closes the slots still open, so a straggler's
//     late frame is counted stale and never read, and stragglers
//     rejoin at the newest round.
//  4. Dense broadcast column: the memo's output is one per-sender state
//     vector in the epoch plus a presence record, admitting only frames
//     stamped with the collected round, so every memoised entry carries
//     the same round. In a fault-free round — every sender present, no
//     drops — a receiver's merge is one copy of the column into its
//     view and one round stamp, and it steps on that view in place;
//     otherwise it walks the same column past absent and dropped
//     senders before applying its private patches.
//  5. Shared round step: every receiver that merges a full column and
//     accepts no private patch that changes it (a clean duplicate or a
//     stale delayed frame changes nothing) holds the same view, the
//     column itself, so for a deterministic alg.BatchStepper the
//     synchroniser steps that view once per round — StepAll over the
//     column with no faulty senders — into the epoch, and each such
//     receiver takes its own entry instead of calling Step. It is a
//     memo of the same function, like the decode memo: receivers with
//     drops or a state-changing patch, randomised stacks (whose
//     per-node coin order the contract pins) and algorithms without a
//     batch step still step themselves.

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
// message, whose broadcast column is the round's shared base. It lives
// in the epoch (epochArena.msgs) and travels as a pointer; the receiver
// reads it and releases the epoch exactly once.
//
// A nil pointer is the in-band shutdown and crash signal (poison): it
// lets the node's receive be a plain channel operation instead of a
// select, and FIFO ordering makes crash accounting exact — handoffs
// delivered before the poison are processed, nothing after it is. The
// handoff path keeps one channel slot free (the len guard in the
// delivery loop), so the single poison send can never block.
type roundMsg struct {
	round uint64
	stall time.Duration
	final bool
	drops []int32
	priv  []privItem
	epoch *epochArena
}

// Slot stamp states. A node incarnation's broadcast slot is stamped
// with (round, state), the round in the high bits: the synchroniser
// opens it for a round with the handoff before it (or at spawn), the
// node commits its frame by moving it from open to arrived, and the
// synchroniser closes it when the round's deadline wins that race, or
// kills it when the schedule crashes the incarnation. Rounds only grow
// per incarnation, so a frame can be committed only to the round the
// slot is open for.
const (
	slotOpen uint64 = iota
	slotArrived
	slotClosed
	slotDead
)

func stamp(round, state uint64) uint64 { return round<<2 | state }

// nodeHandle is one node incarnation: the synchroniser's handoff
// channel and quit signal, and the broadcast slot the node fills. Each
// incarnation has its own slot, so a crashed incarnation's late writes
// never touch its successor's.
type nodeHandle struct {
	id   int
	ch   chan *roundMsg
	quit chan struct{}

	// The slot. The node writes out and frame, then commits them with
	// its stamp CAS; the synchroniser reads them only for a round the
	// stamp shows arrived, before it delivers that round — so the node's
	// next write, which needs that delivery, cannot overlap the read.
	stamp atomic.Uint64
	out   int
	frame []byte
}

// The arrival gate packs the open round's low 32 bits (high half) with
// its arrival count (low half). The count starts at gateBias and gains
// one per committed frame; the synchroniser subtracts the expected
// count once it is known, so the count reaches exactly gateBias once
// every expected frame has landed, and whichever side takes it there
// knows the round is complete. The bias keeps the low half from ever
// borrowing from the round tag.
const gateBias = 1 << 31

func gateWord(round uint64, count uint32) uint64 { return round<<32 | uint64(count) }

// openGate opens the round's arrival gate. It runs before the first
// handoff that lets a node send that round.
func (rt *Runtime) openGate(round uint64) { rt.gate.Store(gateWord(round, gateBias)) }

// arrive commits the node's slot, already written, for the round. A
// frame whose slot is no longer open for it is late — its round closed,
// or the handoff that would have opened it was dropped — and counts as
// stale, except a crashed incarnation's pipelined send for its crash
// round, an artefact of the pipeline (the node was dead that round).
// The arrival that completes the round's expected count wakes the
// synchroniser; wake has one slot and each round completes at most
// once, and the synchroniser drains the token of every round that
// completes, so that send never blocks.
func (rt *Runtime) arrive(h *nodeHandle, round uint64) {
	if !h.stamp.CompareAndSwap(stamp(round, slotOpen), stamp(round, slotArrived)) {
		if h.stamp.Load() != stamp(round, slotDead) {
			rt.staleMessages.Add(1)
		}
		return
	}
	for {
		g := rt.gate.Load()
		if uint32(g>>32) != uint32(round) {
			return // a later round's gate: the stamp already counts this frame
		}
		if rt.gate.CompareAndSwap(g, g+1) {
			if uint32(g)+1 == gateBias {
				rt.wake <- struct{}{}
			}
			return
		}
	}
}

// expectArrivals posts the round's expected arrival count to its gate
// and reports whether every expected frame has already landed, in which
// case no wake-up follows.
func (rt *Runtime) expectArrivals(expected int) bool {
	return uint32(rt.gate.Add(-uint64(expected))) == gateBias
}

// closeGate shuts the round's gate after its deadline and reports
// whether the last expected frame landed first after all, in which case
// its wake token is drained. A closed gate's count restarts at zero, so
// a late arrival can never complete it.
func (rt *Runtime) closeGate(round uint64) bool {
	for {
		g := rt.gate.Load()
		if uint32(g) == gateBias {
			<-rt.wake
			return true
		}
		if rt.gate.CompareAndSwap(g, gateWord(round, 0)) {
			return false
		}
	}
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

// collect waits until the round's arrivals — the expected nodes' frames
// plus any crashed incarnation's committed artefact — have landed, or
// the round deadline passes, and marks in have the expected nodes whose
// frame landed in time, returning their count. The synchroniser parks
// at most once, until the completing arrival wakes it; the deadline
// timer is armed only when the round has to wait. After a deadline the
// slots still open are closed, so their frames count as late.
func (rt *Runtime) collect(ctx context.Context, timer *time.Timer, round uint64, handles []*nodeHandle, expect, have []bool, arrivals int) (int, error) {
	complete := rt.expectArrivals(arrivals)
	if !complete {
		rearm(timer, rt.timeout)
		select {
		case <-rt.wake:
			complete = true
		case <-timer.C:
			complete = rt.closeGate(round)
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	onTime := 0
	for i, h := range handles {
		// A slot that refuses the close has arrived.
		have[i] = h != nil && expect[i] &&
			(complete || !h.stamp.CompareAndSwap(stamp(round, slotOpen), stamp(round, slotClosed)))
		if have[i] {
			onTime++
		}
	}
	return onTime, nil
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
			if ev.Kind == eventStall {
				stallFor[ev.Node] = ev.Stall
			}
		}
	}

	handles := make([]*nodeHandle, rt.n)
	stallsAt(0)
	rt.openGate(0)
	for i := range handles {
		handles[i] = rt.spawn(i, 0, 0, stallFor[i])
	}
	defer func() {
		for _, h := range handles {
			if h != nil {
				close(h.quit)
				h.ch <- nil
			}
		}
		rt.wg.Wait()
		rep.DecodeErrors = rt.decodeErrors.Load()
		rep.StaleBatches = rt.staleBatches.Load()
		rep.StaleMessages = rt.staleMessages.Load()
		rep.SharedSteps = rt.sharedSteps.Load()
	}()

	var (
		// expect marks nodes whose previous-round handoff was delivered
		// (or that were just spawned): exactly the nodes whose slot is
		// open for the round and whose frame the collect phase waits
		// for. have marks the ones whose frame landed in time.
		expect = make([]bool, rt.n)
		have   = make([]bool, rt.n)

		scratchDrops = make([][]int32, rt.n)
		scratchPriv  = make([][]privItem, rt.n)
		windows      []*Window
	)
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
		// phase), which restart spawns consume. A crash kills the
		// incarnation's slot; if the incarnation's pipelined send for
		// this round already committed, that arrival is on the gate,
		// so the collect below waits for it too but never reads it.
		artefacts := 0
		if sched != nil {
			for _, ev := range sched.eventsAt(round) {
				switch ev.Kind {
				case eventCrash:
					if h := handles[ev.Node]; h != nil {
						if h.stamp.Swap(stamp(round, slotDead)) == stamp(round, slotArrived) {
							artefacts++
						}
						close(h.quit)
						h.ch <- nil
						handles[ev.Node] = nil
						rep.Crashes++
						track.fault(round, ev.Burst)
					}
				case eventRestart:
					if handles[ev.Node] == nil {
						handles[ev.Node] = rt.spawn(ev.Node, int(rep.Restarts)+1, round, stallFor[ev.Node])
						expect[ev.Node] = true
						rep.Restarts++
						track.fault(round, ev.Burst)
					}
				case eventStall:
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

		// Collect this round's broadcasts: one frame per node whose
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
		onTime, err := rt.collect(ctx, timer, round, handles, expect, have, expected+artefacts)
		if err != nil {
			return track.finish(rep, start), err
		}
		rep.TimedOutRounds += uint64(expected - onTime)
		if onTime == 0 {
			return track.finish(rep, start), fmt.Errorf("live: round %d: all %d live nodes missed the %v round deadline — aborting the run instead of stalling the synchroniser", round, expected, rt.timeout)
		}

		// Observe the start-of-round outputs of the on-time live nodes.
		agree := true
		common := -1
		for i, h := range handles {
			if !have[i] {
				continue
			}
			if common == -1 {
				common = h.out
			} else if h.out != common {
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
		for s, h := range handles {
			if !have[s] {
				ep.full = false
				continue
			}
			if from, rnd, st, err := decodeFrame(h.frame, rt.n, rt.space); err == nil && from == s && rnd == round {
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
				if !have[s] || (memo && len(windows) == 0) {
					continue
				}
				// A raw-routed frame is copied into the epoch once: the
				// sender reuses its slot next round, receivers may read
				// the patch later than that.
				base0 := handles[s].frame
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
						// A suppressed or dropped frame is gone: later
						// windows neither touch nor count its edge.
						if w.Group != nil {
							if w.Group[s] != w.Group[v] {
								rep.Suppressed++
								interferedBurst = w.Burst
								delivered = false
								touched = true
								break
							}
							continue
						}
						if w.Drop > 0 && chaosHash(seed, round, s, v, saltDrop) < w.Drop {
							rep.Dropped++
							interferedBurst = w.Burst
							delivered = false
							touched = true
							break
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

		// Shared step: a full column with at least one receiver that has
		// no drops is stepped once here, and every receiver whose merge
		// leaves the view exactly the column takes its entry (nodeLoop).
		// Private patches alone do not refuse it: clean duplicates repeat
		// the column and delayed frames are older than it.
		if rt.shared != nil && ep.full {
			for v := range handles {
				if len(scratchDrops[v]) == 0 {
					rt.shared.StepAll(ep.next, ep.column, rt.cleanRound, rt.noCoins)
					ep.stepped = true
					break
				}
			}
		}

		// Deliver the round handoffs. Each message is written into the
		// epoch and its patch scratch copied there, so every slice a node
		// sees shares the epoch's lifetime; next round's stalls ride along
		// (loaded here, consumed above by restart spawns too). The next
		// round's gate opens first, and each slot just before its
		// handoff: a node may send the next round as soon as its token
		// lands.
		stallsAt(round + 1)
		final := round+1 == rt.horizon
		rt.openGate(round + 1)
		ep.acquire(liveCount)
		for v, h := range handles {
			if h == nil {
				continue
			}
			// The len guard replaces a non-blocking select: this loop is
			// the channel's only sender, so the occupancy it reads can
			// only shrink underneath it, and a plain send below the cap
			// never blocks. Stopping one short of capacity reserves the
			// last slot for the poison message.
			if len(h.ch) >= ctrlDepth {
				rep.ControlDrops++
				expect[v] = false
				ep.release()
				continue
			}
			msg := &ep.msgs[v]
			*msg = roundMsg{
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
			h.stamp.Store(stamp(round+1, slotOpen))
			h.ch <- msg
			expect[v] = true
		}
	}
	return track.finish(rep, start), nil
}

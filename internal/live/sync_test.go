package live

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A straggler that sleeps through several barriers must be counted
// faulty for those rounds and rejoin cleanly at the newest round once
// it wakes — no stall, no stale-state confusion, full quorum restored.
func TestStragglerTimesOutAndRejoins(t *testing.T) {
	a := buildAlg(t, "maxstep", 4, 0, 4)
	sched := &Schedule{
		Seed: 5, N: 4, Rounds: 80, Bursts: 1,
		Events: []Event{{Round: 10, Burst: 0, Kind: eventStall, Node: 2, Stall: 120 * time.Millisecond}},
	}
	var lastOnTime int
	rt, err := New(Config{
		Alg:          a,
		Seed:         5,
		Schedule:     sched,
		RoundTimeout: 25 * time.Millisecond,
		OnRound:      func(round uint64, agree bool, common, onTime int) { lastOnTime = onTime },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatalf("a single straggler stalled the run: %v", err)
	}
	if rep.Rounds != 80 {
		t.Fatalf("ran %d rounds, want the full 80", rep.Rounds)
	}
	if rep.Stalls != 1 {
		t.Fatalf("%d stalls injected, want 1", rep.Stalls)
	}
	if rep.TimedOutRounds == 0 {
		t.Fatal("the sleeping node never missed a barrier")
	}
	if lastOnTime != 4 {
		t.Fatalf("last round had %d/4 nodes on time — the straggler did not rejoin", lastOnTime)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations — the rejoin broke counting without a fault charged", rep.Violations)
	}
	if len(rep.Recoveries) != 1 || !rep.Recoveries[0].Confirmed {
		t.Fatalf("stall burst recovery not confirmed: %+v", rep.Recoveries)
	}
	if round, _, ok := rt.Read(2); !ok || round != 79 {
		t.Fatalf("straggler read cell stuck at round %d (ok=%v), want 79", round, ok)
	}
}

// When every live node misses a barrier the synchroniser must abort
// with a descriptive error — promptly, not deadlock waiting on a
// quorum that cannot form.
func TestFullQuorumTimeoutAborts(t *testing.T) {
	a := buildAlg(t, "maxstep", 3, 0, 4)
	events := make([]Event, 0, 3)
	for i := 0; i < 3; i++ {
		events = append(events, Event{Round: 5, Burst: 0, Kind: eventStall, Node: i, Stall: 2 * time.Second})
	}
	sched := &Schedule{Seed: 1, N: 3, Rounds: 50, Bursts: 1, Events: events}
	rt, err := New(Config{Alg: a, Seed: 1, Schedule: sched, RoundTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		rep *Report
		err error
	}
	got := make(chan result, 1)
	go func() {
		rep, err := rt.Run(context.Background())
		got <- result{rep, err}
	}()
	select {
	case r := <-got:
		if r.err == nil {
			t.Fatal("run with a fully stalled quorum returned no error")
		}
		if !strings.Contains(r.err.Error(), "missed the") || !strings.Contains(r.err.Error(), "deadline") {
			t.Fatalf("abort error %q does not describe the quorum timeout", r.err)
		}
		if r.rep == nil || r.rep.Rounds != 5 {
			t.Fatalf("partial report covers %+v rounds, want the 5 completed before the abort", r.rep)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("synchroniser deadlocked instead of aborting")
	}
}

// A crashed node's revival must rejoin the protocol cleanly: arbitrary
// restart state, then full quorum and confirmed recovery.
func TestCrashedNodeRevivesCleanly(t *testing.T) {
	a := buildAlg(t, "maxstep", 4, 0, 4)
	sched := &Schedule{
		Seed: 11, N: 4, Rounds: 80, Bursts: 1,
		Events: []Event{
			{Round: 8, Burst: 0, Kind: eventCrash, Node: 1},
			{Round: 12, Burst: 0, Kind: eventRestart, Node: 1},
		},
	}
	var lastOnTime int
	rt, err := New(Config{
		Alg:      a,
		Seed:     11,
		Schedule: sched,
		OnRound:  func(round uint64, agree bool, common, onTime int) { lastOnTime = onTime },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 || rep.Restarts != 1 {
		t.Fatalf("%d crashes / %d restarts, want 1 / 1", rep.Crashes, rep.Restarts)
	}
	if lastOnTime != 4 {
		t.Fatalf("last round had %d/4 nodes on time — the revived node did not rejoin", lastOnTime)
	}
	if len(rep.Recoveries) != 1 || !rep.Recoveries[0].Confirmed {
		t.Fatalf("crash/restart recovery not confirmed: %+v", rep.Recoveries)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations after the revival", rep.Violations)
	}
	if round, _, ok := rt.Read(1); !ok || round != 79 {
		t.Fatalf("revived node's read cell stuck at round %d (ok=%v), want 79", round, ok)
	}
}

// A straggler's frame that lands after its round closed is counted once
// as stale and never read: the round it missed collects without it, and
// the next round's collect waits for the node's own frame for that
// round. The test plays the synchroniser for one node by hand, with the
// engine's own collect, so the late frame's timing is exact: the round-1
// slot is closed before the handoff that lets the node send round 1.
func TestLateFrameCountedStaleOnceNeverRead(t *testing.T) {
	rt, err := New(Config{Alg: buildAlg(t, "maxstep", 3, 0, 8), Seed: 1, Rounds: 8, RoundTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	h := newNodeHandle(0, 0)
	handles := []*nodeHandle{h, nil, nil}
	expect, have := []bool{true, false, false}, make([]bool, 3)
	collect := func(round uint64) int {
		onTime, err := rt.collect(ctx, timer, round, handles, expect, have, 1)
		if err != nil {
			t.Fatal(err)
		}
		return onTime
	}
	// open readies round's gate and the node's slot for it, as the
	// delivery loop does before a handoff.
	open := func(round uint64) {
		rt.openGate(round)
		h.stamp.Store(stamp(round, slotOpen))
	}
	deliver := func(round uint64) {
		ep := newEpochArena(rt.n)
		ep.acquire(1)
		h.ch <- &roundMsg{round: round, epoch: ep}
	}

	rt.openGate(0)
	state, rng, lastSeen := rt.incarnate(0, 0)
	rt.wg.Add(1)
	go rt.nodeLoop(h, state, rng, lastSeen, 0, 0)
	defer rt.wg.Wait()
	defer func() { h.ch <- nil }()

	if got := collect(0); got != 1 {
		t.Fatalf("round 0: %d frames on time, want 1", got)
	}
	open(1)
	if got := collect(1); got != 0 || have[0] {
		t.Fatalf("round 1: %d frames on time (have=%v) before the node could send, want 0", got, have[0])
	}
	deliver(0) // the node now sends round 1 into its closed slot
	for deadline := time.Now().Add(10 * time.Second); rt.staleMessages.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the late round-1 frame was never counted stale")
		}
	}
	open(2)
	deliver(1)
	if got := collect(2); got != 1 {
		t.Fatalf("round 2: %d frames on time, want the rejoined node's", got)
	}
	if _, rnd, _, err := decodeFrame(h.frame, rt.n, rt.space); err != nil || rnd != 2 {
		t.Fatalf("round 2 collected a frame stamped round %d (err %v): the late round-1 frame leaked into the next round", rnd, err)
	}
	if got := rt.staleMessages.Load(); got != 1 {
		t.Fatalf("%d stale messages, want the one late frame counted once", got)
	}
}

// A crash and a restart of the same node in adjacent rounds: the dead
// incarnation's pipelined send for its crash round commits to its own
// slot, before or after the kill, and must neither complete the crash
// round's collect nor count toward the new incarnation's arrivals. The
// run stays byte-identical to the lockstep model, which has no
// pipeline, and nothing is stale.
//
// Handoffs go out in node order, so crashing the first two nodes of a
// 64-node network gives each crashed incarnation the whole delivery
// loop to commit its send before the kill: with more than one CPU,
// both orders occur.
func TestCrashRestartAdjacentRounds(t *testing.T) {
	const n, rounds = 64, 120
	var events []Event
	for r := uint64(8); r+1 < rounds; r += 4 {
		node := int(r/4) % 2
		events = append(events,
			Event{Round: r, Kind: eventCrash, Node: node},
			Event{Round: r + 1, Kind: eventRestart, Node: node})
	}
	for _, seed := range []int64{3, 4} {
		cfg := Config{
			Alg:      buildAlg(t, "maxstep", n, 0, 8),
			Seed:     seed,
			Window:   12,
			Schedule: &Schedule{Seed: seed, N: n, Rounds: rounds, Bursts: 1, Events: events},
		}
		wantRep, wantTrace := lockstep(t, cfg)
		gotRep, gotTrace := runRuntime(t, cfg)
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("seed %d: reports diverge:\nlockstep: %+v\nruntime:  %+v", seed, wantRep, gotRep)
		}
		if !reflect.DeepEqual(wantTrace, gotTrace) {
			t.Fatalf("seed %d: observation streams diverge", seed)
		}
		if gotRep.StaleMessages != 0 || gotRep.Crashes != gotRep.Restarts || gotRep.Crashes == 0 {
			t.Fatalf("seed %d: %d stale messages, %d crashes, %d restarts", seed, gotRep.StaleMessages, gotRep.Crashes, gotRep.Restarts)
		}
	}
}

// A node stalled across its own crash shuts down without a hang: the
// crash interrupts the stall sleep, the dead incarnation never sends,
// and the run ends well before the stall would have.
func TestStallAcrossCrashShutsDown(t *testing.T) {
	const stall = 5 * time.Second
	a := buildAlg(t, "maxstep", 4, 0, 4)
	sched := &Schedule{
		Seed: 2, N: 4, Rounds: 40, Bursts: 1,
		Events: []Event{
			{Round: 6, Kind: eventStall, Node: 1, Stall: stall},
			{Round: 8, Kind: eventCrash, Node: 1},
		},
	}
	rt, err := New(Config{Alg: a, Seed: 2, Schedule: sched, RoundTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rep *Report
		err error
	}
	got := make(chan result, 1)
	begin := time.Now()
	go func() {
		rep, err := rt.Run(context.Background())
		got <- result{rep, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.rep.Rounds != 40 || r.rep.Crashes != 1 || r.rep.Stalls != 1 {
			t.Fatalf("ran %d rounds with %d crashes and %d stalls, want 40, 1, 1", r.rep.Rounds, r.rep.Crashes, r.rep.Stalls)
		}
		if r.rep.StaleMessages != 0 {
			t.Fatalf("%d stale messages: the crashed straggler sent after its kill", r.rep.StaleMessages)
		}
		if el := time.Since(begin); el >= stall {
			t.Fatalf("run took %v: shutdown waited out the %v stall instead of interrupting it", el, stall)
		}
	case <-time.After(stall + 10*time.Second):
		t.Fatal("run with a node stalled across its crash hung")
	}
}

// The gate's two races with the deadline. A round whose last frame
// lands just as its deadline fires still completes: closeGate sees the
// full count and takes the wake token, leaving the channel empty for
// the next round. An arrival that commits its slot before the close
// but reaches the gate after it can never complete the closed round.
func TestCloseGateRaces(t *testing.T) {
	rt, err := New(Config{Alg: buildAlg(t, "maxstep", 3, 0, 8), Seed: 1, Rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := newNodeHandle(0, 4)
	rt.openGate(4)
	if rt.expectArrivals(1) {
		t.Fatal("round 4 complete before its frame landed")
	}
	rt.arrive(a, 4)
	if !rt.closeGate(4) {
		t.Fatal("closeGate missed the arrival that completed round 4")
	}
	if len(rt.wake) != 0 {
		t.Fatal("round 4's wake token was left for round 5")
	}

	b, c := newNodeHandle(1, 5), newNodeHandle(2, 5)
	rt.openGate(5)
	rt.expectArrivals(2)
	rt.arrive(b, 5)
	if rt.closeGate(5) {
		t.Fatal("round 5 closed as complete with one of two frames")
	}
	rt.arrive(c, 5) // its slot was still open: on time, but after the gate closed
	if len(rt.wake) != 0 {
		t.Fatal("an arrival completed round 5 after its gate closed")
	}
	if got := rt.staleMessages.Load(); got != 0 {
		t.Fatalf("%d stale messages, want 0", got)
	}
}

package live

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// diffCase builds one seeded n-node soak: the algorithm, the schedule
// and the confirmation window.
func diffCase(t *testing.T, name string, n, f, c int, seed int64, kinds []string) Config {
	t.Helper()
	cfg, window := soakConfig(seed, n, kinds)
	sched, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Alg: buildAlg(t, name, n, f, c), Seed: seed, Window: window, Schedule: sched}
}

// runRuntime soaks the configuration on the concurrent runtime and
// returns the report (wall-clock fields and the shared-step count,
// which the lockstep model has no notion of, zeroed) plus the per-round
// observation stream.
func runRuntime(t *testing.T, cfg Config) (*Report, []obs) {
	t.Helper()
	rep, trace := soakRuntime(t, cfg)
	rep.Elapsed, rep.RoundsPerSec, rep.SharedSteps = 0, 0, 0
	return rep, trace
}

// soakRuntime runs the configuration on the concurrent runtime and
// returns its full report plus the per-round observation stream.
func soakRuntime(t *testing.T, cfg Config) (*Report, []obs) {
	t.Helper()
	var trace []obs
	cfg.OnRound = func(round uint64, agree bool, common, onTime int) {
		trace = append(trace, obs{round, agree, common, onTime})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, trace
}

// The engine contract: per seed, the concurrent runtime replays the
// single-goroutine lockstep model byte for byte — same report (every
// counter, every recovery record) and same per-round observation
// stream — under every deterministic chaos kind alone and combined, on
// a deterministic stack, on a randomised one whose per-node coins must
// be drawn in the same order, and on the maxstep stack whose fault-free
// rounds take the engine's full-column merge. The ecount, corollary1
// (boost) and maxstep stacks cover every kind of deterministic batch
// step the shared round step runs. The chaos timeline both replay is
// pinned per seed by TestScheduleDeterministic.
func TestEngineDifferential(t *testing.T) {
	kindSets := [][]string{
		nil, // burst windows with nothing in them: a fault-free soak
		{"crash"},
		{"loss"},
		{"corrupt"},
		{"dup"},
		{"delay"},
		{"partition"},
		{"crash", "loss", "corrupt", "dup", "delay", "partition"},
	}
	stacks := []struct {
		name    string
		n, f, c int
	}{{"ecount", 8, 1, 8}, {"randagree", 8, 1, 2}, {"maxstep", 8, 0, 8}, {"corollary1", 4, 1, 8}}
	for _, stack := range stacks {
		for _, kinds := range kindSets {
			for _, seed := range []int64{7, 99} {
				name := fmt.Sprintf("%s/%v/seed=%d", stack.name, kinds, seed)
				t.Run(name, func(t *testing.T) {
					cfg := diffCase(t, stack.name, stack.n, stack.f, stack.c, seed, kinds)
					wantRep, wantTrace := lockstep(t, cfg)
					gotRep, gotTrace := runRuntime(t, cfg)
					if !reflect.DeepEqual(wantRep, gotRep) {
						t.Fatalf("reports diverge:\nlockstep: %+v\nruntime:  %+v", wantRep, gotRep)
					}
					if !reflect.DeepEqual(wantTrace, gotTrace) {
						for i := range wantTrace {
							if i < len(gotTrace) && wantTrace[i] != gotTrace[i] {
								t.Fatalf("observation streams diverge at round %d: lockstep %+v, runtime %+v", wantTrace[i].round, wantTrace[i], gotTrace[i])
							}
						}
						t.Fatalf("observation streams diverge in length: %d vs %d", len(wantTrace), len(gotTrace))
					}
				})
			}
		}
	}
}

// The shared round step must actually engage, or the differential
// above would pass on an engine that never takes it: every stepping
// node-round of a fault-free deterministic batch stack takes it, a
// randomised stack never does, a loss soak takes it outside its
// chaos-touched receivers only, and a dup soak takes it everywhere.
func TestSharedStepEngages(t *testing.T) {
	const rounds = 64
	// Every node steps in every round but the last.
	steps := func(cfg Config, rep *Report) uint64 { return uint64(cfg.Alg.N()) * (rep.Rounds - 1) }

	cfg := Config{Alg: buildAlg(t, "ecount", 32, 3, 8), Seed: 3, Rounds: rounds}
	rep, _ := soakRuntime(t, cfg)
	if rep.SharedSteps != steps(cfg, rep) {
		t.Errorf("fault-free ecount n=32: %d shared steps, want every one of the %d stepping node-rounds", rep.SharedSteps, steps(cfg, rep))
	}

	rep, _ = soakRuntime(t, Config{Alg: buildAlg(t, "randagree", 8, 1, 2), Seed: 3, Rounds: rounds})
	if rep.SharedSteps != 0 {
		t.Errorf("randagree: %d shared steps, want 0 — a randomised stack's nodes draw their own coins", rep.SharedSteps)
	}

	cfg = diffCase(t, "ecount", 8, 1, 8, 7, []string{"loss"})
	rep, _ = soakRuntime(t, cfg)
	if rep.Dropped == 0 {
		t.Fatal("loss soak dropped no frame")
	}
	if rep.SharedSteps == 0 || rep.SharedSteps >= steps(cfg, rep) {
		t.Errorf("loss soak: %d shared steps of %d stepping node-rounds, want some but not all", rep.SharedSteps, steps(cfg, rep))
	}

	cfg = diffCase(t, "ecount", 8, 1, 8, 7, []string{"dup"})
	rep, _ = soakRuntime(t, cfg)
	if rep.Duplicated == 0 {
		t.Fatal("dup soak duplicated no frame")
	}
	if rep.SharedSteps != steps(cfg, rep) {
		t.Errorf("dup soak: %d shared steps, want every one of the %d stepping node-rounds — a clean duplicate leaves the view the column", rep.SharedSteps, steps(cfg, rep))
	}
}

// The combined-kind soak must actually inject every deterministic chaos
// family, or the differential above proves less than it claims.
func TestEngineDifferentialCoversAllKinds(t *testing.T) {
	rep, _ := lockstep(t, diffCase(t, "ecount", 8, 1, 8, 99, []string{"crash", "loss", "corrupt", "dup", "delay", "partition"}))
	if rep.Crashes == 0 || rep.Restarts == 0 || rep.Dropped == 0 ||
		rep.Corrupted == 0 || rep.Duplicated == 0 || rep.Delayed == 0 || rep.Suppressed == 0 {
		t.Fatalf("combined soak left a chaos family uninjected: %+v", rep)
	}
	if rep.DecodeErrors == 0 {
		t.Fatalf("corrupt chaos produced no decode errors — bit-flipped frames must keep hitting the receivers' own validation: %+v", rep)
	}
}

// Stall chaos is wall-clock and outside the byte-diff contract: the
// runtime must still inject the scheduled stalls, degrade gracefully
// and recover.
func TestEngineStallBehavioural(t *testing.T) {
	a := buildAlg(t, "ecount", 8, 1, 8)
	cfg, window := soakConfig(11, 8, []string{"stall"})
	cfg.StallDur = 80 * time.Millisecond
	sched, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Alg:          a,
		Seed:         11,
		Window:       window,
		Schedule:     sched,
		RoundTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls != 2 {
		t.Fatalf("injected %d stalls, want one per burst (2)", rep.Stalls)
	}
	if rep.TimedOutRounds == 0 {
		t.Fatal("stalled nodes never missed a barrier — the stall must exceed the round deadline")
	}
	if err := rep.CheckRecovery(declaredBound(t, a)); err != nil {
		t.Fatal(err)
	}
}

// A peer stamped past the round being merged — reachable only through
// a frame that authenticates with a later round — keeps its state when
// a full column arrives, as the lockstep rule (accept a frame only if
// it is no older than the newest accepted from its sender) demands:
// the copy-free merge may run only when no peer is stamped past the
// column.
func TestNodeMergeKeepsNewerStamp(t *testing.T) {
	rt, err := New(Config{Alg: buildAlg(t, "maxstep", 3, 0, 8), Seed: 1, Rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	deliver, _ := soloNode(t, rt)

	// Round 0: no column; peer 1's frame says round 5, state 7, so the
	// node steps to (7+1) mod 8.
	ep := newEpochArena(rt.n)
	forged := appendFrame(nil, 1, 5, 7, rt.space)
	if got := deliver(&roundMsg{round: 0, epoch: ep, priv: []privItem{{raw: forged}}}); got != 0 {
		t.Fatalf("round 0: node stepped to %d, want 0", got)
	}

	// Round 1: a full column of zeros. Peer 1's round-1 entry is older
	// than its round-5 stamp and must be ignored: still (7+1) mod 8.
	ep = newEpochArena(rt.n)
	ep.full = true
	for i := range ep.present {
		ep.present[i] = true
	}
	if got := deliver(&roundMsg{round: 1, epoch: ep}); got != 0 {
		t.Fatalf("round 1: node stepped to %d, want 0 — the full column overwrote a peer stamped at a later round", got)
	}
}

// soloNode runs node 0 of rt's network on its own, with the test in
// the synchroniser's place. It returns the node's initial broadcast
// state and deliver, which hands the node one round message and
// returns the state the node broadcasts next.
func soloNode(t *testing.T, rt *Runtime) (deliver func(*roundMsg) uint64, initial uint64) {
	t.Helper()
	rt.openGate(0)
	h := newNodeHandle(0, 0)
	state, rng, lastSeen := rt.incarnate(0, 0)
	rt.wg.Add(1)
	go rt.nodeLoop(h, state, rng, lastSeen, 0, 0)
	t.Cleanup(func() {
		h.ch <- nil
		rt.wg.Wait()
	})
	// broadcast waits for the node's frame for the round, as the
	// synchroniser's collect does, and decodes it.
	broadcast := func() uint64 {
		if !rt.expectArrivals(1) {
			<-rt.wake
		}
		_, _, st, err := decodeFrame(h.frame, rt.n, rt.space)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	deliver = func(m *roundMsg) uint64 {
		rt.openGate(m.round + 1)
		m.epoch.acquire(1)
		h.stamp.Store(stamp(m.round+1, slotOpen))
		h.ch <- m
		return broadcast()
	}
	return deliver, broadcast()
}

// A receiver whose private patches leave its view exactly the full
// column takes the round's shared step: a clean duplicate repeats the
// column's entry, and a delayed frame, clean or raw, is older than the
// column. A forged frame that authenticates with another state changes
// the view, so that receiver steps itself. The shared entry here is a
// sentinel no Step on the view could produce, so the node's broadcast
// shows which path it took.
func TestSharedStepTakesUnchangedPatches(t *testing.T) {
	a := buildAlg(t, "maxstep", 3, 0, 8)
	rt, err := New(Config{Alg: a, Seed: 1, Rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	deliver, state := soloNode(t, rt)
	for round, tc := range []struct {
		name   string
		priv   func(round uint64, column []uint64) []privItem
		shared bool
	}{
		{"clean duplicate", func(round uint64, column []uint64) []privItem {
			return []privItem{{entry: wireEntry{from: 1, round: round, state: column[1]}}}
		}, true},
		{"delayed frames", func(round uint64, column []uint64) []privItem {
			return []privItem{
				{entry: wireEntry{from: 1, round: round - 1, state: (column[1] + 1) % 8}},
				{raw: appendFrame(nil, 2, round-1, (column[2]+2)%8, rt.space)},
			}
		}, true},
		{"forged frame", func(round uint64, column []uint64) []privItem {
			return []privItem{{raw: appendFrame(nil, 1, round, (column[1]+3)%8, rt.space)}}
		}, false},
	} {
		ep := newEpochArena(rt.n)
		ep.full = true
		for i := range ep.present {
			ep.present[i] = true
			ep.column[i] = state
		}
		m := &roundMsg{round: uint64(round), epoch: ep}
		m.priv = tc.priv(m.round, ep.column)
		view := append([]uint64(nil), ep.column...)
		for _, p := range m.priv {
			if p.raw == nil {
				continue
			}
			if from, rnd, st, err := decodeFrame(p.raw, rt.n, rt.space); err == nil && rnd == m.round {
				view[from] = st
			}
		}
		own := a.Step(0, view, nil)
		ep.stepped = true
		ep.next[0] = (own + 4) % 8
		want := own
		if tc.shared {
			want = ep.next[0]
		}
		got := deliver(m)
		if got != want {
			t.Fatalf("round %d, %s: node stepped to %d, want %d (shared step %d, own step %d)",
				round, tc.name, got, want, ep.next[0], own)
		}
		state = got
	}
}

// tagAlg is a test algorithm whose broadcasts name their sender and
// count its steps: node v's next state is 64v plus its own step count
// mod 64, whatever it hears. Step records each view it is handed, so a
// test sees which peers' frames reached a node.
type tagAlg struct {
	n     int
	mu    sync.Mutex
	views [][][]alg.State
}

func newTagAlg(n int) *tagAlg { return &tagAlg{n: n, views: make([][][]alg.State, n)} }

func (a *tagAlg) N() int                        { return a.n }
func (a *tagAlg) F() int                        { return 0 }
func (a *tagAlg) C() int                        { return 2 }
func (a *tagAlg) StateSpace() uint64            { return uint64(64 * a.n) }
func (a *tagAlg) Output(_ int, s alg.State) int { return int(s % 2) }

func (a *tagAlg) Step(v int, recv []alg.State, _ *rand.Rand) alg.State {
	a.mu.Lock()
	a.views[v] = append(a.views[v], slices.Clone(recv))
	a.mu.Unlock()
	return alg.State(64*v) + (recv[v]%64+1)%64
}

// A partition window shares its rounds with a duplicate-and-delay
// window. Every frame crossing the cut is suppressed once and is gone:
// the link window neither counts nor copies it, so no state crosses the
// cut inside the window, on the engine and on the lockstep model alike.
// Each node's view of a peer across the cut stays the arbitrary one it
// started with, while frames within each side keep arriving.
func TestPartitionHoldsUnderLinkChaos(t *testing.T) {
	const n, rounds = 4, 20
	group := []int{0, 0, 1, 1}
	sched := &Schedule{Seed: 5, N: n, Rounds: rounds, Bursts: 1, Windows: []Window{
		{From: 0, To: rounds, Group: group},
		{From: 0, To: rounds, Dup: 0.5, Delay: 0.3, DelayBy: 2},
	}}
	cutEdges, sideEdges := uint64(0), uint64(0)
	for s := range group {
		for v := range group {
			switch {
			case s == v:
			case group[s] != group[v]:
				cutEdges++
			default:
				sideEdges++
			}
		}
	}
	for _, engine := range []string{"lockstep", "runtime"} {
		t.Run(engine, func(t *testing.T) {
			a := newTagAlg(n)
			cfg := Config{Alg: a, Seed: 5, Window: 4, Schedule: sched}
			var rep *Report
			if engine == "lockstep" {
				rep, _ = lockstep(t, cfg)
			} else {
				rep, _ = soakRuntime(t, cfg)
			}
			if rep.Suppressed != cutEdges*rounds {
				t.Errorf("suppressed %d frames, want every cut edge-round (%d)", rep.Suppressed, cutEdges*rounds)
			}
			if rep.Duplicated == 0 || rep.Delayed == 0 || rep.Duplicated+rep.Delayed > sideEdges*rounds {
				t.Errorf("duplicated %d and delayed %d frames, want some of each and at most one per uncut edge-round (%d)",
					rep.Duplicated, rep.Delayed, sideEdges*rounds)
			}
			for v, views := range a.views {
				heard := false
				for u := range group {
					if u == v {
						continue
					}
					for k, view := range views {
						if view[u] == views[0][u] {
							continue
						}
						if group[u] != group[v] {
							t.Fatalf("node %d's step %d saw node %d's state %d across the cut", v, k, u, view[u])
						}
						heard = true
					}
				}
				if !heard {
					t.Errorf("node %d never heard a peer on its own side", v)
				}
			}
		})
	}
}

package ecount

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/alg/algtest"
)

// stepShape is one counter Step is pinned to its map-backed oracle on.
type stepShape struct {
	name string
	e    *Counter
}

// stepShapes returns both recursion shapes at every (n, f) of the
// grid, up to the n = 32, f = 3 stack the live runtime serves.
func stepShapes(t testing.TB) []stepShape {
	t.Helper()
	var out []stepShape
	for _, g := range []struct{ n, f, c int }{{4, 1, 5}, {7, 2, 6}, {10, 3, 8}, {32, 3, 8}} {
		for _, b := range []struct {
			shape string
			build func(n, f, c int) (*Counter, error)
		}{{"balanced", New}, {"chain", NewChain}} {
			e, err := b.build(g.n, g.f, g.c)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, stepShape{fmt.Sprintf("%s/n%d_f%d", b.shape, g.n, g.f), e})
		}
	}
	return out
}

// trajectory runs e fault-free in lockstep from an all-zero
// configuration on the reference transition and returns one
// configuration per round: past the stabilisation bound these include
// clean sweeps of both blocks, which random views almost never reach.
func trajectory(e *Counter, rounds int) [][]alg.State {
	states := make([]alg.State, e.n)
	out := make([][]alg.State, 0, rounds)
	for r := 0; r < rounds; r++ {
		out = append(out, append([]alg.State(nil), states...))
		next := make([]alg.State, e.n)
		for v := range next {
			next[v] = e.stepReference(v, states, nil)
		}
		states = next
	}
	return out
}

// sweepView builds a configuration in which every node runs consensus
// instructions on non-trivial inputs: block 0's nodes come from one
// trajectory round and block 1's from another, so the two block clocks
// sit at independent offsets and both sweep windows can be open at
// once; every node's pointers are set to match whichever clock is
// inside its window; and the consensus registers are scrambled around
// a common value, so the vote thresholds and the king's report decide.
func sweepView(e *Counter, traj [][]alg.State, rng *rand.Rand) []alg.State {
	recv := make([]alg.State, e.n)
	copy(recv[:e.n0], traj[rng.Intn(len(traj))][:e.n0])
	copy(recv[e.n0:], traj[rng.Intn(len(traj))][e.n0:])
	var p [2]uint64
	for b := 0; b < 2; b++ {
		p[b] = e.pointerIdle()
		if r, ok := e.readClockReference(b, recv); ok {
			if off := (r + e.period - e.windowStart(b)) % e.period; off < e.tau {
				p[b] = off
			}
		}
	}
	common := uint64(rng.Intn(int(e.c) + 1))
	for u, s := range recv {
		a := common
		if rng.Intn(4) == 0 {
			a = uint64(rng.Intn(int(e.c) + 1))
		}
		s = withField(e.cdc, s, fieldP0, p[0])
		s = withField(e.cdc, s, fieldP1, p[1])
		s = withField(e.cdc, s, fieldA, a)
		recv[u] = withField(e.cdc, s, fieldD, uint64(rng.Intn(2)))
	}
	return recv
}

// randomView draws one received vector: uniform raw words
// (non-reduced, as an adversary may send them), their reductions into
// the state space, or a sweep configuration with up to f slots
// overwritten by raw adversarial words.
func randomView(e *Counter, traj [][]alg.State, rng *rand.Rand) []alg.State {
	switch rng.Intn(3) {
	case 0:
		recv := make([]alg.State, e.n)
		for u := range recv {
			recv[u] = rng.Uint64()
		}
		return recv
	case 1:
		recv := make([]alg.State, e.n)
		for u := range recv {
			recv[u] = rng.Uint64() % e.StateSpace()
		}
		return recv
	default:
		recv := sweepView(e, traj, rng)
		for k := rng.Intn(e.f + 1); k > 0; k-- {
			recv[rng.Intn(e.n)] = rng.Uint64()
		}
		return recv
	}
}

// matches returns how many of receiver v's sweep pointers match their
// block's clock read on recv: 0 free-runs, 1 or 2 execute a consensus
// instruction (block 0 taking priority when both match).
func matches(e *Counter, v int, recv []alg.State) int {
	n := 0
	for b := 0; b < 2; b++ {
		p := e.cdc.Field(recv[v], fieldP0+b)
		r, ok := e.readClockReference(b, recv)
		if p < e.tau && ok && r == (e.windowStart(b)+p)%e.period {
			n++
		}
	}
	return n
}

// TestStepMatchesReference pins the pooled dense-tally Step to the
// map-backed stepReference on random raw, reduced and adversarially
// patched sweep views, and requires the free-running branch, single
// sweeps and doubly matched sweeps to be exercised on every shape.
func TestStepMatchesReference(t *testing.T) {
	for _, sh := range stepShapes(t) {
		e := sh.e
		t.Run(sh.name, func(t *testing.T) {
			traj := trajectory(e, int(e.StabilisationBound()+e.period))
			rng := rand.New(rand.NewSource(int64(e.n*10 + e.f)))
			var seen [3]int
			for trial := 0; trial < 1500; trial++ {
				recv := randomView(e, traj, rng)
				v := rng.Intn(e.n)
				seen[matches(e, v, recv)]++
				got := e.Step(v, recv, nil)
				if want := e.stepReference(v, recv, nil); got != want {
					t.Fatalf("trial %d node %d: Step %d, stepReference %d (recv %v)", trial, v, got, want, recv)
				}
			}
			if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
				t.Fatalf("views exercised %d free-running, %d single and %d double sweep steps; want all three", seen[0], seen[1], seen[2])
			}
		})
	}
}

// TestStepConcurrent steps one shared Counter from 8 goroutines at
// once — as the live runtime's node goroutines do — so the pooled
// scratch is checked under the race detector, and every result is
// compared with stepReference.
func TestStepConcurrent(t *testing.T) {
	e, err := New(32, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	traj := trajectory(e, int(e.StabilisationBound()+e.period))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 200; trial++ {
				recv := randomView(e, traj, rng)
				v := rng.Intn(e.n)
				if got, want := e.Step(v, recv, nil), e.stepReference(v, recv, nil); got != want {
					errs <- fmt.Errorf("goroutine %d trial %d node %d: Step %d, stepReference %d", seed, trial, v, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// stepViews returns, for the n = 32, f = 3 balanced stack, one
// stabilised configuration in which node 0 executes a sweep
// instruction and one in which it free-runs.
func stepViews(t testing.TB) (e *Counter, sweep, free []alg.State) {
	t.Helper()
	e, err := New(32, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	traj := trajectory(e, int(e.StabilisationBound()+e.period))
	for _, cfg := range traj[e.StabilisationBound():] {
		if matches(e, 0, cfg) > 0 {
			if sweep == nil {
				sweep = cfg
			}
		} else if free == nil {
			free = cfg
		}
	}
	if sweep == nil || free == nil {
		t.Fatal("stabilised trajectory lacks a sweep or a free-running round")
	}
	return e, sweep, free
}

// TestStepAllocsZero requires the per-node Step of the live runtime's
// ecount stack to allocate nothing, mid-sweep and free-running.
func TestStepAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	e, sweep, free := stepViews(t)
	for _, tc := range []struct {
		name string
		recv []alg.State
	}{{"sweep", sweep}, {"free", free}} {
		if allocs := testing.AllocsPerRun(200, func() { e.Step(0, tc.recv, nil) }); allocs != 0 {
			t.Errorf("%s: Step allocates %.0f objects per call, want 0", tc.name, allocs)
		}
	}
}

// TestStepAllAllocsZero requires StepAll to allocate nothing in a
// round whose receivers fall into shared classes, mid-sweep and
// free-running.
func TestStepAllAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	e, sweep, free := stepViews(t)
	faulty := make([]bool, e.n)
	senders := []int{3, 17, 30}
	for _, u := range senders {
		faulty[u] = true
	}
	values, class := algtest.ClassedRows(rand.New(rand.NewSource(1)), "alternating", faulty, len(senders), e.StateSpace())
	p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}
	next := make([]alg.State, e.n)
	rngs := make([]*rand.Rand, e.n)
	for _, tc := range []struct {
		name string
		base []alg.State
	}{{"sweep", sweep}, {"free", free}} {
		if allocs := testing.AllocsPerRun(200, func() { e.StepAll(next, tc.base, p, rngs) }); allocs != 0 {
			t.Errorf("%s: StepAll allocates %.0f objects per call, want 0", tc.name, allocs)
		}
	}
}

// stepSink keeps BenchmarkStep's result live.
var stepSink alg.State

// BenchmarkStep times one per-node Step of the n = 32, f = 3, c = 8
// balanced stack, mid-sweep and free-running.
func BenchmarkStep(b *testing.B) {
	e, sweep, free := stepViews(b)
	for _, tc := range []struct {
		name string
		recv []alg.State
	}{{"sweep", sweep}, {"free", free}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepSink = e.Step(0, tc.recv, nil)
			}
		})
	}
}

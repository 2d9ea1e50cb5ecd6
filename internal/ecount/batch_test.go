package ecount

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/alg/algtest"
)

// TestBatchStepMatchesStep drives the counter's StepAll and per-node
// Step over random configurations — arbitrary states, fault sets and
// per-receiver forged values — and requires both to produce the next
// states of the map-backed stepReference, on both recursion shapes
// (the balanced split recurses through nested ecount counters, the
// chain split through a MaxStep leaf every level). Step and StepAll
// share their per-receiver tail, so each is pinned to the independent
// oracle rather than to the other. The trials cycle through
// algtest.RowSharings, so StepAll's once-per-class path runs on
// alternating, all-equal and mixed receiver classes as well as on
// unlabelled rows.
func TestBatchStepMatchesStep(t *testing.T) {
	balanced, err := New(10, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := NewChain(10, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a    *Counter
	}{
		{"balanced", balanced},
		{"chain", chain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			n := a.N()
			space := a.StateSpace()
			rng := rand.New(rand.NewSource(31))
			traj := trajectory(a, int(a.StabilisationBound()+a.period))
			var sweeps int
			for trial := 0; trial < 96; trial++ {
				// Odd trials start from a sweep configuration, where
				// the consensus branch runs.
				var states []alg.State
				if trial%2 == 1 {
					states = sweepView(a, traj, rng)
				} else {
					states = make([]alg.State, n)
					for i := range states {
						states[i] = rng.Uint64() % space
					}
				}
				faulty := make([]bool, n)
				var senders []int
				for len(senders) < rng.Intn(a.F()+2) {
					u := rng.Intn(n)
					if !faulty[u] {
						faulty[u] = true
						senders = append(senders[:0], collect(faulty)...)
					}
				}
				sharing := algtest.RowSharings[trial%len(algtest.RowSharings)]
				values, class := algtest.ClassedRows(rng, sharing, faulty, len(senders), space)
				p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}

				wantNext := make([]alg.State, n)
				recv := make([]alg.State, n)
				for v := 0; v < n; v++ {
					if faulty[v] {
						continue
					}
					copy(recv, states)
					p.Apply(recv, v)
					if matches(a, v, recv) > 0 {
						sweeps++
					}
					wantNext[v] = a.stepReference(v, recv, nil)
					if got := a.Step(v, recv, nil); got != wantNext[v] {
						t.Fatalf("trial %d: node %d: Step %d, stepReference %d (faults %v)",
							trial, v, got, wantNext[v], senders)
					}
				}

				gotNext := make([]alg.State, n)
				for v := range gotNext {
					gotNext[v] = algtest.Untouched
				}
				a.StepAll(gotNext, states, p, make([]*rand.Rand, n))
				for v := 0; v < n; v++ {
					if faulty[v] && gotNext[v] != algtest.Untouched {
						t.Fatalf("trial %d: StepAll wrote faulty node %d", trial, v)
					}
					if !faulty[v] && gotNext[v] != wantNext[v] {
						t.Fatalf("trial %d: node %d: StepAll %d, stepReference %d (faults %v)",
							trial, v, gotNext[v], wantNext[v], senders)
					}
				}
			}
			if sweeps == 0 {
				t.Fatal("no receiver executed a sweep instruction")
			}
		})
	}
}

func collect(faulty []bool) []int {
	var out []int
	for i, f := range faulty {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// TestStepAllClockReadThresholds builds, around a stabilised
// configuration, blocks whose correct members' clock votes reach every
// plurality count c against every number k of faulty members, and
// shows even receivers k forged votes for the plurality value and odd
// receivers k votes no other node holds. Every node's sweep pointer
// for the block matches the plurality value, so each receiver's read
// decides its next state. The receivers' reads agree exactly when c
// clears the quorum n_b − f_b or c + k misses it; StepAll must resolve
// the block once per round exactly then (shareRound), and must equal
// stepReference at every receiver either way, with shared and unshared
// rows, on both recursion shapes. The grid covers every edge: c =
// quorum and quorum − 1, c + k = quorum − 1 and quorum, and 2(c + k) =
// n_b and n_b + 1.
func TestStepAllClockReadThresholds(t *testing.T) {
	edges := []struct {
		name string
		at   func(c, k, q, nb int) bool
		hits int
	}{
		{"c = quorum", func(c, k, q, nb int) bool { return c == q }, 0},
		{"c = quorum-1, k > 0", func(c, k, q, nb int) bool { return c == q-1 && k > 0 }, 0},
		{"c+k = quorum-1", func(c, k, q, nb int) bool { return c+k == q-1 }, 0},
		{"c+k = quorum, c < quorum", func(c, k, q, nb int) bool { return c+k == q && c < q }, 0},
		{"2(c+k) = n_b", func(c, k, q, nb int) bool { return 2*(c+k) == nb }, 0},
		{"2(c+k) = n_b+1", func(c, k, q, nb int) bool { return 2*(c+k) == nb+1 }, 0},
		{"all members faulty", func(c, k, q, nb int) bool { return c == 0 }, 0},
	}
	for _, g := range []struct {
		name  string
		build func(n, f, c int) (*Counter, error)
		n, f  int
	}{
		{"balanced/n10_f3", New, 10, 3},
		{"balanced/n16_f5", New, 16, 5},
		{"chain/n10_f3", NewChain, 10, 3},
		{"chain/n7_f2", NewChain, 7, 2},
	} {
		e, err := g.build(g.n, g.f, 6)
		if err != nil {
			t.Fatal(err)
		}
		bound := int(e.StabilisationBound())
		traj := trajectory(e, bound+3*int(e.period))
		for bi := 0; bi < 2; bi++ {
			lo, nb := e.blockRange(bi)
			q := e.quora[bi]
			// A stabilised round whose block clock reads one past the
			// window start, so pointer 1 matches it.
			want := (e.windowStart(bi) + 1) % e.period
			at := -1
			for r := bound; r < bound+int(e.period); r++ {
				if got, ok := e.readClockReference(bi, traj[r]); ok && got == want {
					at = r
					break
				}
			}
			if at < 0 {
				t.Fatalf("%s: block %d never reads %d after stabilising", g.name, bi, want)
			}
			withPointer := func(s alg.State) alg.State { return withField(e.cdc, s, fieldP0+bi, 1) }
			for k := 0; k <= min(e.f, nb); k++ {
				for c := min(1, nb-k); c <= nb-k; c++ {
					// Members [0, c) vote the plurality value, members
					// [c, nb-k) one distinct later value each, and the
					// last k members are faulty.
					states := append([]alg.State(nil), traj[at]...)
					for j := c; j < nb-k; j++ {
						states[lo+j] = traj[at+1+j-c][lo+j]
					}
					for u := range states {
						states[u] = withPointer(states[u])
					}
					faulty := make([]bool, e.n)
					var senders []int
					for u := lo + nb - k; u < lo+nb; u++ {
						faulty[u] = true
						senders = append(senders, u)
					}
					values := make([][]alg.State, e.n)
					class := make([]int32, e.n)
					type read struct {
						r  uint64
						ok bool
					}
					var reads []read
					recv := make([]alg.State, e.n)
					for v := range values {
						class[v] = int32(v % 2)
						if faulty[v] {
							continue
						}
						row := make([]alg.State, k)
						for j, u := range senders {
							if v%2 == 0 {
								row[j] = traj[at][u]
							} else {
								row[j] = traj[at+nb+1+j][u]
							}
							row[j] = withPointer(row[j])
						}
						values[v] = row
						copy(recv, states)
						for j, u := range senders {
							recv[u] = row[j]
						}
						r, ok := e.readClockReference(bi, recv)
						reads = append(reads, read{r, ok})
					}
					agree := true
					for _, rd := range reads {
						agree = agree && rd == reads[0]
					}
					if agree != (c >= q || c+k < q) {
						t.Fatalf("%s block %d c=%d k=%d: receivers' reads agree=%v, construction broken", g.name, bi, c, k, agree)
					}
					p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}
					sc := e.getScratch()
					e.shareRound(sc, states, p)
					if sc.decided[bi] != agree {
						t.Fatalf("%s block %d c=%d k=%d (quorum %d of %d): resolved once per round = %v, but receivers' reads agree = %v",
							g.name, bi, c, k, q, nb, sc.decided[bi], agree)
					}
					for _, pc := range []*alg.Patches{p, {Faulty: faulty, Senders: senders, Values: values}} {
						got := make([]alg.State, e.n)
						e.StepAll(got, states, pc, make([]*rand.Rand, e.n))
						for v := range got {
							if faulty[v] {
								continue
							}
							copy(recv, states)
							pc.Apply(recv, v)
							if want := e.stepReference(v, recv, nil); got[v] != want {
								t.Fatalf("%s block %d c=%d k=%d (quorum %d of %d, classes %v) node %d: StepAll %d, stepReference %d",
									g.name, bi, c, k, q, nb, pc.Class != nil, v, got[v], want)
							}
						}
					}
					for i := range edges {
						if edges[i].at(c, k, q, nb) {
							edges[i].hits++
						}
					}
				}
			}
		}
	}
	for _, edge := range edges {
		if edge.hits == 0 {
			t.Errorf("threshold grid never reached the edge %s", edge.name)
		}
	}
}

package ecount

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/alg/algtest"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// fuzzGrid enumerates the counter shapes the fuzzer exercises; both
// split strategies appear so the packed layouts of each recursion
// shape are covered.
var fuzzGrid = []struct {
	n, f, c int
	chain   bool
}{
	{4, 1, 2, false},
	{4, 1, 10, true},
	{7, 2, 5, false},
	{7, 2, 3, true},
	{10, 3, 8, false},
}

// FuzzECountTransition feeds the ecount state-transition function
// arbitrary own states and received vectors: it must never panic, the
// next state must stay inside the declared state space (the paper's
// state-bit budget S = ceil(log2 |X|)), and it must equal the
// map-backed stepReference. The consensus building block is fuzzed
// under the same inputs.
func FuzzECountTransition(f *testing.F) {
	f.Add(uint8(0), uint16(0), int64(1), []byte{0x01, 0x02})
	f.Add(uint8(1), uint16(3), int64(7), []byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77})
	f.Add(uint8(4), uint16(9), int64(-1), make([]byte, 96))
	counters := make([]*Counter, len(fuzzGrid))
	for i, g := range fuzzGrid {
		build := New
		if g.chain {
			build = NewChain
		}
		c, err := build(g.n, g.f, g.c)
		if err != nil {
			f.Fatal(err)
		}
		counters[i] = c
	}
	f.Fuzz(func(t *testing.T, which uint8, node uint16, rngSeed int64, raw []byte) {
		c := counters[int(which)%len(counters)]
		n := c.N()
		v := int(node) % n
		recv := make([]alg.State, n)
		for i := range recv {
			var word [8]byte
			copy(word[:], slice8(raw, i))
			recv[i] = binary.LittleEndian.Uint64(word[:])
		}
		// The simulator always delivers states reduced into the space;
		// the transition must tolerate both the reduced and the raw
		// adversarial form without panicking or escaping the space.
		space := c.StateSpace()
		reduced := make([]alg.State, n)
		for i, s := range recv {
			reduced[i] = s % space
		}
		rng := rand.New(rand.NewSource(rngSeed))
		for _, in := range [][]alg.State{reduced, recv} {
			next := c.Step(v, in, rng)
			if next >= space {
				t.Fatalf("Step escaped the state space: %d >= %d (n=%d f=%d c=%d)",
					next, space, c.N(), c.F(), c.C())
			}
			if want := c.stepReference(v, in, rng); next != want {
				t.Fatalf("Step %d, stepReference %d (n=%d f=%d c=%d node %d recv %v)",
					next, want, c.N(), c.F(), c.C(), v, in)
			}
		}

		// The consensus building block under the same raw reports.
		cons := c.cons
		observed := make([]uint64, n)
		for i, s := range recv {
			observed[i] = s
		}
		regs := cons.Step(phaseking.Registers{A: recv[v] % (cons.mod + 1), D: recv[v] & 1}, uint64(node), observed)
		aField, dField := regs.Encode(cons.mod)
		if aField > cons.mod || dField > 1 {
			t.Fatalf("consensus registers escaped their encoding: a'=%d d=%d", aField, dField)
		}
		if d := cons.decide(regs); d >= cons.mod {
			t.Fatalf("decision %d outside [0, %d)", d, cons.mod)
		}
	})
}

// FuzzECountStepAll fuzzes the batch step against the map-backed
// oracle: a stabilised or still-converging configuration from the
// fault-free trajectory, with a fuzzed set of correct nodes rewritten
// to arbitrary states, a fuzzed fault set, and per-receiver patch rows
// in which each receiver sees either the faulty senders' trajectory
// states (those receivers share one class when classed is set) or raw
// fuzzed words. StepAll must stay inside the state space, leave faulty
// nodes untouched and equal stepReference at every correct receiver.
// The seeds sit at the edges of the once-per-round clock read, on
// every block of every shape: plurality count c of the correct
// members' votes at quorum and quorum − 1, c + k at quorum − 1 and
// quorum for k faulty members, and 2(c + k) at n_b and n_b + 1.
func FuzzECountStepAll(f *testing.F) {
	counters := make([]*Counter, len(fuzzGrid))
	trajs := make([][][]alg.State, len(fuzzGrid))
	for i, g := range fuzzGrid {
		build := New
		if g.chain {
			build = NewChain
		}
		e, err := build(g.n, g.f, g.c)
		if err != nil {
			f.Fatal(err)
		}
		counters[i] = e
		trajs[i] = trajectory(e, int(e.StabilisationBound()+e.period))
	}
	raw := make([]byte, 8*64)
	rand.New(rand.NewSource(5)).Read(raw)
	for i, e := range counters {
		stable := uint16(len(trajs[i]) - 1)
		for bi := 0; bi < 2; bi++ {
			lo, nb := e.blockRange(bi)
			q := e.quora[bi]
			for k := 0; k <= min(e.f, nb); k++ {
				for _, c := range []int{q, q - 1, q - 1 - k, q - k, nb/2 - k, (nb+1)/2 - k} {
					if c < min(1, nb-k) || c > nb-k {
						continue
					}
					// Members [lo, lo+d) dissent, the last k are faulty.
					d := nb - k - c
					dissent := uint16(1)<<(lo+d) - uint16(1)<<lo
					faults := uint16(1)<<(lo+nb) - uint16(1)<<(lo+nb-k)
					f.Add(uint8(i), stable, faults, dissent, uint16(0x5555), c%2 == 0, raw)
				}
			}
		}
	}
	f.Add(uint8(2), uint16(0), uint16(0x7f), uint16(0), uint16(0), false, []byte{1})
	f.Fuzz(func(t *testing.T, which uint8, round, faultMask, dissentMask, forgeMask uint16, classed bool, raw []byte) {
		i := int(which) % len(counters)
		e, traj := counters[i], trajs[i]
		n, space := e.N(), e.StateSpace()
		word := func(i int) uint64 {
			var w [8]byte
			copy(w[:], slice8(raw, i))
			return binary.LittleEndian.Uint64(w[:])
		}
		honest := traj[int(round)%len(traj)]
		base := append([]alg.State(nil), honest...)
		faulty := make([]bool, n)
		var senders []int
		for u := 0; u < n; u++ {
			if dissentMask>>u&1 == 1 {
				base[u] = word(u) % space
			}
			if faultMask>>u&1 == 1 {
				faulty[u] = true
				senders = append(senders, u)
			}
		}
		values := make([][]alg.State, n)
		var class []int32
		if classed {
			class = make([]int32, n)
		}
		for v := 0; v < n; v++ {
			supporting := forgeMask>>v&1 == 1
			if class != nil {
				class[v] = -1
				if supporting {
					class[v] = 0
				}
			}
			if faulty[v] {
				continue
			}
			row := make([]alg.State, len(senders))
			for j, u := range senders {
				if supporting {
					row[j] = honest[u]
				} else {
					row[j] = word(n + v*len(senders) + j)
				}
			}
			values[v] = row
		}
		p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}
		next := make([]alg.State, n)
		for v := range next {
			next[v] = algtest.Untouched
		}
		e.StepAll(next, base, p, make([]*rand.Rand, n))
		recv := make([]alg.State, n)
		for v := 0; v < n; v++ {
			if faulty[v] {
				if next[v] != algtest.Untouched {
					t.Fatalf("StepAll wrote faulty node %d", v)
				}
				continue
			}
			if next[v] >= space {
				t.Fatalf("StepAll escaped the state space at node %d: %d >= %d", v, next[v], space)
			}
			copy(recv, base)
			p.Apply(recv, v)
			if want := e.stepReference(v, recv, nil); next[v] != want {
				t.Fatalf("node %d: StepAll %d, stepReference %d (n=%d f=%d c=%d faults %v base %v row %v)",
					v, next[v], want, e.N(), e.F(), e.C(), senders, base, values[v])
			}
		}
	})
}

// slice8 returns up to 8 bytes of raw for word i, cycling through the
// input so short fuzz payloads still fill every node state.
func slice8(raw []byte, i int) []byte {
	if len(raw) == 0 {
		return nil
	}
	start := (i * 8) % len(raw)
	end := start + 8
	if end > len(raw) {
		end = len(raw)
	}
	return raw[start:end]
}

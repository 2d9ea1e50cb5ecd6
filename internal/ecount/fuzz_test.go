package ecount

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
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
		regs := cons.Step(phaseking.Registers{A: recv[v] % (cons.Mod() + 1), D: recv[v] & 1}, uint64(node), observed)
		aField, dField := regs.Encode(cons.Mod())
		if aField > cons.Mod() || dField > 1 {
			t.Fatalf("consensus registers escaped their encoding: a'=%d d=%d", aField, dField)
		}
		if d := cons.Decide(regs); d >= cons.Mod() {
			t.Fatalf("decision %d outside [0, %d)", d, cons.Mod())
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

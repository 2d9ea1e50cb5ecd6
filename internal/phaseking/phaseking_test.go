package phaseking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/synchcount/synchcount/internal/alg"
)

func TestEncodeDecodeRegisters(t *testing.T) {
	const c = 10
	tests := []struct {
		regs   Registers
		aField uint64
		dField uint64
	}{
		{Registers{A: 0, D: 0}, 0, 0},
		{Registers{A: 9, D: 1}, 9, 1},
		{Registers{A: Infinity, D: 1}, 10, 1},
		{Registers{A: 12, D: 0}, 10, 0}, // out-of-range clamps to ∞
	}
	for _, tt := range tests {
		a, d := tt.regs.Encode(c)
		if a != tt.aField || d != tt.dField {
			t.Errorf("Encode(%+v) = (%d,%d), want (%d,%d)", tt.regs, a, d, tt.aField, tt.dField)
		}
	}
	for aField := uint64(0); aField <= c; aField++ {
		r := DecodeRegisters(aField, 1, c)
		if aField == c && r.A != Infinity {
			t.Errorf("DecodeRegisters(%d) should be ∞", aField)
		}
		if aField < c && r.A != aField {
			t.Errorf("DecodeRegisters(%d) = %d", aField, r.A)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(a uint64, d bool, cSmall uint8) bool {
		c := uint64(cSmall%30) + 2
		regs := Registers{A: a % (c + 5), D: 0}
		if d {
			regs.D = 1
		}
		if regs.A >= c {
			regs.A = Infinity
		}
		aF, dF := regs.Encode(c)
		back := DecodeRegisters(aF, dF, c)
		return back == regs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIncrement(t *testing.T) {
	if Increment(3, 5) != 4 {
		t.Error("Increment(3,5) != 4")
	}
	if Increment(4, 5) != 0 {
		t.Error("Increment(4,5) != 0")
	}
	if Increment(Infinity, 5) != Infinity {
		t.Error("Increment(∞) must be a no-op")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{C: 4, Thresholds: Thresholds{Strong: 3, Weak: 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{C: 1, Thresholds: Thresholds{Strong: 3, Weak: 1}},
		{C: 4, Thresholds: Thresholds{Strong: 0, Weak: 1}},
		{C: 4, Thresholds: Thresholds{Strong: 3, Weak: -1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", bad)
		}
	}
}

func TestInstructionSchedule(t *testing.T) {
	// Round index R = 3ℓ + phase.
	for r := uint64(0); r < 12; r++ {
		if instructionPhase(r) != r%3 {
			t.Fatalf("instructionPhase(%d) = %d", r, instructionPhase(r))
		}
		if KingOf(r) != r/3 {
			t.Fatalf("KingOf(%d) = %d", r, KingOf(r))
		}
	}
}

func tallyOf(values ...uint64) *alg.Tally {
	t := alg.NewTally(len(values))
	for _, v := range values {
		t.Add(v)
	}
	return t
}

func TestStepI0ResetsWithoutQuorum(t *testing.T) {
	cfg := Config{C: 5, Thresholds: Thresholds{Strong: 3, Weak: 1}}
	// Own value 2 seen only twice < Strong: reset to ∞ (increment no-op).
	regs := Step(cfg, Registers{A: 2, D: 1}, 0, tallyOf(2, 2, 4, 4), Infinity)
	if regs.A != Infinity {
		t.Fatalf("A = %d, want ∞", regs.A)
	}
	// Own value 2 seen three times: increment.
	regs = Step(cfg, Registers{A: 2, D: 1}, 0, tallyOf(2, 2, 2, 4), Infinity)
	if regs.A != 3 {
		t.Fatalf("A = %d, want 3", regs.A)
	}
}

func TestStepI1SetsConfidenceAndAdoptsMin(t *testing.T) {
	cfg := Config{C: 5, Thresholds: Thresholds{Strong: 3, Weak: 1}}
	// z_2 = 3 >= Strong: d=1; min{j: z_j > 1} = 2; increment -> 3.
	regs := Step(cfg, Registers{A: 2, D: 0}, 1, tallyOf(2, 2, 2, 4), Infinity)
	if regs.D != 1 || regs.A != 3 {
		t.Fatalf("got %+v, want A=3 D=1", regs)
	}
	// z_4 = 2 < Strong: d=0; min{j: z_j > 1} = 2; increment -> 3.
	regs = Step(cfg, Registers{A: 4, D: 1}, 1, tallyOf(2, 2, 4, 4), Infinity)
	if regs.D != 0 || regs.A != 3 {
		t.Fatalf("got %+v, want A=3 D=0", regs)
	}
	// Nothing above Weak: reset to ∞.
	regs = Step(cfg, Registers{A: 4, D: 1}, 1, tallyOf(0, 1, 2, 3), Infinity)
	if regs.D != 0 || regs.A != Infinity {
		t.Fatalf("got %+v, want A=∞ D=0", regs)
	}
	// Only ∞ above Weak: stays ∞.
	regs = Step(cfg, Registers{A: 4, D: 1}, 1, tallyOf(Infinity, Infinity, 2, 3), Infinity)
	if regs.A != Infinity {
		t.Fatalf("got %+v, want A=∞", regs)
	}
}

func TestStepI2AdoptsKing(t *testing.T) {
	cfg := Config{C: 5, Thresholds: Thresholds{Strong: 3, Weak: 1}}
	// Unconfident node adopts king's value 3, then increments -> 4.
	regs := Step(cfg, Registers{A: 2, D: 0}, 2, tallyOf(2, 2, 3, 3), 3)
	if regs.A != 4 || regs.D != 1 {
		t.Fatalf("got %+v, want A=4 D=1", regs)
	}
	// Reset node adopts king even with d=1.
	regs = Step(cfg, Registers{A: Infinity, D: 1}, 2, tallyOf(2, 2, 3, 3), 3)
	if regs.A != 4 || regs.D != 1 {
		t.Fatalf("got %+v, want A=4 D=1", regs)
	}
	// Confident node ignores king.
	regs = Step(cfg, Registers{A: 2, D: 1}, 2, tallyOf(2, 2, 3, 3), 3)
	if regs.A != 3 || regs.D != 1 {
		t.Fatalf("got %+v, want A=3 D=1", regs)
	}
	// King reports ∞: min{C, ∞} = C, increment wraps to (C+1) mod C = 1.
	regs = Step(cfg, Registers{A: Infinity, D: 0}, 2, tallyOf(2, 2, 3, 3), Infinity)
	if regs.A != 1 || regs.D != 1 {
		t.Fatalf("got %+v, want A=1 D=1", regs)
	}
}

// TestLemma5Persistence: once all non-faulty nodes agree on a finite value
// with d = 1, one round of *any* instruction set under *any* Byzantine
// tally keeps them in agreement and increments the value (Lemma 5).
func TestLemma5Persistence(t *testing.T) {
	const n, f = 7, 2
	cfg := Config{C: 6, Thresholds: Thresholds{Strong: n - f, Weak: f}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		x := uint64(rng.Intn(6))
		r := uint64(rng.Intn(18)) // any instruction set, any king
		// n-f correct nodes all hold (x, d=1); f Byzantine tally entries
		// are arbitrary, and the king's report is arbitrary.
		tally := alg.NewTally(n)
		for i := 0; i < n-f; i++ {
			tally.Add(x)
		}
		for i := 0; i < f; i++ {
			if rng.Intn(3) == 0 {
				tally.Add(Infinity)
			} else {
				tally.Add(uint64(rng.Intn(6)))
			}
		}
		kingA := uint64(rng.Intn(7))
		if kingA == 6 {
			kingA = Infinity
		}
		got := Step(cfg, Registers{A: x, D: 1}, r, tally, kingA)
		want := Registers{A: (x + 1) % 6, D: 1}
		if got != want {
			t.Fatalf("trial %d: persistence violated: x=%d r=%d got %+v want %+v",
				trial, x, r, got, want)
		}
	}
}

// TestLemma4Agreement: executing I_{3ℓ}, I_{3ℓ+1}, I_{3ℓ+2} with a
// non-faulty king from *arbitrary* register states establishes agreement
// on a finite value with d = 1 at every non-faulty node (Lemma 4).
func TestLemma4Agreement(t *testing.T) {
	const n, f = 7, 2
	const c = 6
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		inputs := make([]uint64, n)
		faulty := make([]bool, n)
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(c))
		}
		// Mark f random non-king nodes faulty. Kings are 0..f+1; keep at
		// least king 0 honest for this focused test by marking faults
		// among nodes 2..n-1 (Lemma 4 needs *some* honest king; the full
		// schedule guarantees one, here we pin king ℓ=0).
		perm := rng.Perm(n - 2)
		for i := 0; i < f; i++ {
			faulty[perm[i]+2] = true
		}
		byz := func(round uint64, from, to int) uint64 {
			if rng.Intn(4) == 0 {
				return Infinity
			}
			return uint64(rng.Intn(c))
		}
		out, err := runConsensus(n, f, c, inputs, faulty, byz)
		if err != nil {
			t.Fatal(err)
		}
		var ref uint64
		refSet := false
		for i := 0; i < n; i++ {
			if faulty[i] {
				continue
			}
			if out[i] == Infinity {
				t.Fatalf("trial %d: node %d ended with ∞", trial, i)
			}
			if !refSet {
				ref, refSet = out[i], true
			} else if out[i] != ref {
				t.Fatalf("trial %d: disagreement: %v (faulty %v)", trial, out, faulty)
			}
		}
	}
}

// TestConsensusValidity: with unanimous inputs and Byzantine noise, the
// final common value is the input advanced by the number of rounds
// (Lemma 5 applied 3(F+2) times).
func TestConsensusValidity(t *testing.T) {
	const n, f = 4, 1
	const c = 8
	rng := rand.New(rand.NewSource(17))
	for x := uint64(0); x < c; x++ {
		inputs := []uint64{x, x, x, x}
		faulty := []bool{false, false, true, false}
		byz := func(round uint64, from, to int) uint64 { return uint64(rng.Intn(c)) }
		out, err := runConsensus(n, f, c, inputs, faulty, byz)
		if err != nil {
			t.Fatal(err)
		}
		want := (x + 3*(f+2)) % c
		for i, got := range out {
			if faulty[i] {
				continue
			}
			if got != want {
				t.Fatalf("x=%d: node %d = %d, want %d", x, i, got, want)
			}
		}
	}
}

func TestRunConsensusValidation(t *testing.T) {
	inputs := []uint64{0, 0, 0, 0}
	faulty := make([]bool, 4)
	if _, err := runConsensus(0, 0, 4, nil, nil, nil); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := runConsensus(3, 1, 4, inputs[:3], faulty[:3], nil); err == nil {
		t.Error("3f >= n should fail")
	}
	if _, err := runConsensus(4, 1, 4, inputs[:2], faulty, nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := runConsensus(4, 1, 4, []uint64{0, 0, 9, 0}, faulty, nil); err == nil {
		t.Error("out-of-range input should fail")
	}
}

// TestConsensusAgreementQuick fuzzes fault placement and Byzantine
// behaviour: agreement must hold whenever f < n/3.
func TestConsensusAgreementQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6) // 4..9
		fMax := (n - 1) / 3
		nf := rng.Intn(fMax + 1)
		inputs := make([]uint64, n)
		faulty := make([]bool, n)
		const c = 5
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(c))
		}
		for _, i := range rng.Perm(n)[:nf] {
			faulty[i] = true
		}
		byz := func(round uint64, from, to int) uint64 {
			v := rng.Intn(c + 1)
			if v == c {
				return Infinity
			}
			return uint64(v)
		}
		out, err := runConsensus(n, nf, c, inputs, faulty, byz)
		if err != nil {
			return false
		}
		var ref uint64
		refSet := false
		for i := 0; i < n; i++ {
			if faulty[i] {
				continue
			}
			if out[i] == Infinity {
				return false
			}
			if !refSet {
				ref, refSet = out[i], true
			} else if out[i] != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

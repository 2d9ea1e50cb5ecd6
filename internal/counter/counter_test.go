package counter

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

func TestNewTrivialValidation(t *testing.T) {
	if _, err := NewTrivial(1); err == nil {
		t.Error("NewTrivial(1) should fail")
	}
	c, err := NewTrivial(5)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 1 || c.F() != 0 || c.C() != 5 || c.StateSpace() != 5 {
		t.Fatalf("unexpected parameters: n=%d f=%d c=%d space=%d", c.N(), c.F(), c.C(), c.StateSpace())
	}
	if alg.StateBits(c) != 3 {
		t.Fatalf("StateBits = %d, want 3", alg.StateBits(c))
	}
	if !alg.IsDeterministic(c) {
		t.Error("trivial counter must be deterministic")
	}
}

func TestTrivialCounts(t *testing.T) {
	c, _ := NewTrivial(3)
	s := uint64(2)
	want := []int{2, 0, 1, 2, 0, 1}
	for i, w := range want {
		if got := c.Output(0, s); got != w {
			t.Fatalf("step %d: output %d, want %d", i, got, w)
		}
		s = c.Step(0, []uint64{s}, nil)
	}
}

func TestTrivialReducesOutOfRangeState(t *testing.T) {
	c, _ := NewTrivial(4)
	// Arbitrary initial states include encodings out of range after
	// adversarial injection in layered constructions.
	if got := c.Step(0, []uint64{^uint64(0)}, nil); got >= 4 {
		t.Fatalf("Step produced out-of-space state %d", got)
	}
}

// TestMaxStepReducesOutOfSpaceWords: Step and StepAll divide only when
// a word is out of space, and must still return exactly the reference
// max-of-(s mod c)-plus-one on received vectors and faulty patch rows
// full of words >= c.
func TestMaxStepReducesOutOfSpaceWords(t *testing.T) {
	ref := func(recv []uint64, c uint64) uint64 {
		var mx uint64
		for _, s := range recv {
			if s%c > mx {
				mx = s % c
			}
		}
		return (mx + 1) % c
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range []uint64{2, 5, 7, 16} {
		const n = 6
		m, err := NewMaxStep(n, int(c))
		if err != nil {
			t.Fatal(err)
		}
		word := func() uint64 {
			switch rng.Intn(5) {
			case 0:
				return rng.Uint64() % c
			case 1:
				return c - 1 + uint64(rng.Intn(2))*c
			case 2:
				return ^uint64(0) - uint64(rng.Intn(3))
			case 3:
				return c * uint64(1+rng.Intn(4))
			}
			return rng.Uint64()
		}
		faulty := []bool{false, true, false, false, true, false}
		senders := []int{1, 4}
		for trial := 0; trial < 200; trial++ {
			base := make([]uint64, n)
			for i := range base {
				base[i] = word()
			}
			values := make([][]alg.State, n)
			for v := range values {
				if !faulty[v] {
					values[v] = []alg.State{word(), word()}
				}
			}
			p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values}
			next := make([]alg.State, n)
			m.StepAll(next, base, p, nil)
			recv := make([]uint64, n)
			for v := 0; v < n; v++ {
				copy(recv, base)
				if faulty[v] {
					if got, want := m.Step(v, recv, nil), ref(recv, c); got != want {
						t.Fatalf("c=%d: Step(%v) = %d, want %d", c, recv, got, want)
					}
					continue
				}
				p.Apply(recv, v)
				want := ref(recv, c)
				if got := m.Step(v, recv, nil); got != want {
					t.Fatalf("c=%d: Step(%v) = %d, want %d", c, recv, got, want)
				}
				if next[v] != want {
					t.Fatalf("c=%d: StepAll gives receiver %d state %d on %v, want %d", c, v, next[v], recv, want)
				}
			}
		}
	}
}

func TestMaxStepValidation(t *testing.T) {
	if _, err := NewMaxStep(0, 4); err == nil {
		t.Error("NewMaxStep(0,4) should fail")
	}
	if _, err := NewMaxStep(3, 1); err == nil {
		t.Error("NewMaxStep(3,1) should fail")
	}
}

func TestMaxStepAgreesInOneRound(t *testing.T) {
	m, err := NewMaxStep(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		states := make([]uint64, 5)
		for i := range states {
			states[i] = uint64(rng.Intn(7))
		}
		next := make([]uint64, 5)
		for i := range next {
			next[i] = m.Step(i, states, nil)
		}
		for i := 1; i < 5; i++ {
			if next[i] != next[0] {
				t.Fatalf("trial %d: nodes disagree after one fault-free round: %v", trial, next)
			}
		}
		// And from then on they count together.
		again := m.Step(2, next, nil)
		if again != (next[0]+1)%7 {
			t.Fatalf("trial %d: second round did not increment: %d -> %d", trial, next[0], again)
		}
	}
}

func TestRandomizedValidation(t *testing.T) {
	if _, err := NewRandomizedAgree(3, 1); err == nil {
		t.Error("n=3,f=1 violates f<n/3 and should fail")
	}
	if _, err := NewRandomizedAgree(4, -1); err == nil {
		t.Error("negative f should fail")
	}
	if _, err := NewRandomizedAgree(6, 2); err == nil {
		t.Error("n=6,f=2 violates f<n/3 and should fail")
	}
	if _, err := NewRandomizedAgree(7, 2); err != nil {
		t.Errorf("n=7,f=2 should be accepted: %v", err)
	}
}

func TestRandomizedAgreePersistence(t *testing.T) {
	// Once all correct nodes hold the same bit, counting persists no
	// matter what the f Byzantine slots contain: the n-f correct states
	// alone reach the unanimity threshold.
	r, err := NewRandomizedAgree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		bit := uint64(trial % 2)
		recv := []uint64{bit, bit, bit, uint64(rng.Intn(2))} // node 3 Byzantine
		for node := 0; node < 3; node++ {
			got := r.Step(node, recv, rng)
			if got != (bit+1)%2 {
				t.Fatalf("trial %d node %d: Step = %d, want %d", trial, node, got, (bit+1)%2)
			}
		}
	}
}

// TestRandomizedBothThresholdsImpossible steps RandomizedAgree on every
// split of n received bits for n = 4..13 at f = (n-1)/3. With f < n/3 at
// most one unanimity threshold fires, so a split that reaches one must
// step to that side's successor whatever the coin would say: n-f or more
// zeros give 1, n-f or more ones give 0.
func TestRandomizedBothThresholdsImpossible(t *testing.T) {
	for n := 4; n <= 13; n++ {
		f := (n - 1) / 3
		r, err := NewRandomizedAgree(n, f)
		if err != nil {
			t.Fatal(err)
		}
		for zeros := 0; zeros <= n; zeros++ {
			var want uint64
			switch {
			case zeros >= n-f:
				want = 1
			case n-zeros >= n-f:
				want = 0
			default:
				continue
			}
			recv := make([]uint64, n)
			for i := zeros; i < n; i++ {
				recv[i] = 1
			}
			for seed := int64(0); seed < 16; seed++ {
				if got := r.Step(0, recv, rand.New(rand.NewSource(seed))); got != want {
					t.Fatalf("n=%d f=%d zeros=%d seed=%d: Step = %d, want %d", n, f, zeros, seed, got, want)
				}
			}
		}
	}
}

// TestRandomizedCoinBelowThreshold: when neither value reaches n-f, the
// node flips a fair coin, so over many draws both bits appear in roughly
// equal numbers.
func TestRandomizedCoinBelowThreshold(t *testing.T) {
	for n := 4; n <= 13; n++ {
		f := (n - 1) / 3
		r, err := NewRandomizedAgree(n, f)
		if err != nil {
			t.Fatal(err)
		}
		// Every split that reaches neither threshold: more than f of each bit.
		for zeros := f + 1; zeros < n-f; zeros++ {
			recv := make([]uint64, n)
			for i := zeros; i < n; i++ {
				recv[i] = 1
			}
			rng := rand.New(rand.NewSource(int64(n*100 + zeros)))
			ones := 0
			const draws = 400
			for d := 0; d < draws; d++ {
				ones += int(r.Step(0, recv, rng))
			}
			if ones < draws/4 || ones > 3*draws/4 {
				t.Fatalf("n=%d f=%d zeros=%d: %d/%d ones, want a fair coin", n, f, zeros, ones, draws)
			}
		}
	}
}

func TestRandomizedOutputs(t *testing.T) {
	r, _ := NewRandomizedAgree(4, 1)
	if r.Output(0, 0) != 0 || r.Output(0, 1) != 1 {
		t.Error("RandomizedAgree output must be the state bit")
	}
	if alg.IsDeterministic(r) {
		t.Error("RandomizedAgree must not claim determinism")
	}
}

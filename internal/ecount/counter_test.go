package ecount

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/phaseking"
	"github.com/synchcount/synchcount/internal/sim"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ n, f, c int }{
		{4, 0, 10},  // f = 0 has no merge layer
		{3, 1, 10},  // 3f >= n
		{6, 2, 10},  // 3f >= n
		{4, 1, 1},   // modulus too small
		{4, -1, 10}, // negative resilience
	} {
		if _, err := New(tc.n, tc.f, tc.c); err == nil {
			t.Errorf("New(%d, %d, %d) succeeded, want error", tc.n, tc.f, tc.c)
		}
		if _, err := NewChain(tc.n, tc.f, tc.c); err == nil {
			t.Errorf("NewChain(%d, %d, %d) succeeded, want error", tc.n, tc.f, tc.c)
		}
	}
}

// TestParams locks the derived parameters of both stacks: the balanced
// recursion's bound grows linearly in f and its state polylog-style,
// while the chain recursion pays a quadratic bound and reaches the
// 2^62 state-space limit at f = 5 — an honest report of the
// construction's envelope, like recursion.VaryingK's.
func TestParams(t *testing.T) {
	for _, tc := range []struct {
		f          int
		balBits    int
		balBound   uint64
		chainBits  int
		chainBound uint64
	}{
		{1, 17, 73, 17, 73},
		{2, 31, 169, 31, 169},
		{3, 32, 193, 46, 289},
		{4, 46, 313, 61, 433},
	} {
		n := 3*tc.f + 1
		b, err := New(n, tc.f, 10)
		if err != nil {
			t.Fatal(err)
		}
		if b.N() != n || b.F() != tc.f || b.C() != 10 {
			t.Fatalf("f=%d: balanced reports (%d, %d, %d)", tc.f, b.N(), b.F(), b.C())
		}
		if got := alg.StateBits(b); got != tc.balBits {
			t.Errorf("f=%d: balanced bits = %d, want %d", tc.f, got, tc.balBits)
		}
		if got := b.StabilisationBound(); got != tc.balBound {
			t.Errorf("f=%d: balanced bound = %d, want %d", tc.f, got, tc.balBound)
		}
		c, err := NewChain(n, tc.f, 10)
		if err != nil {
			t.Fatal(err)
		}
		if got := alg.StateBits(c); got != tc.chainBits {
			t.Errorf("f=%d: chain bits = %d, want %d", tc.f, got, tc.chainBits)
		}
		if got := c.StabilisationBound(); got != tc.chainBound {
			t.Errorf("f=%d: chain bound = %d, want %d", tc.f, got, tc.chainBound)
		}
		if !alg.IsDeterministic(b) || !alg.IsDeterministic(c) {
			t.Fatalf("f=%d: stacks must be deterministic", tc.f)
		}
	}
	if _, err := NewChain(16, 5, 10); !errors.Is(err, codec.ErrSpaceTooLarge) {
		t.Fatalf("NewChain(16, 5, 10) = %v, want ErrSpaceTooLarge", err)
	}
	if _, err := New(22, 7, 10); err != nil {
		t.Fatalf("balanced f=7 should build: %v", err)
	}
}

func TestSplits(t *testing.T) {
	for f := 1; f <= 9; f++ {
		for n := 3*f + 1; n <= 3*f+4; n++ {
			for _, split := range []splitFunc{balancedSplit, chainSplit} {
				n0, f0, f1 := split(n, f)
				if f0+f1+1 != f {
					t.Fatalf("split(%d, %d): resiliences %d+%d+1 != %d", n, f, f0, f1, f)
				}
				if 3*f0 >= n0 || 3*f1 >= n-n0 {
					t.Fatalf("split(%d, %d) = (%d, %d, %d): a block violates f < n/3", n, f, n0, f0, f1)
				}
			}
		}
	}
}

// TestStabilisesWithinBound runs both stacks over the built-in
// adversary suite at full declared resilience, with faults packed
// into block 0, into block 1, and spread across both — by pigeonhole
// at least one block is always within budget — and requires
// stabilisation within the declared bound with no post-stabilisation
// violations. Everything is seeded, so this locks behaviour rather
// than sampling it.
func TestStabilisesWithinBound(t *testing.T) {
	builds := []struct {
		name  string
		build func(n, f, c int) (*Counter, error)
	}{
		{"balanced", New},
		{"chain", NewChain},
	}
	grids := []struct{ n, f, c int }{{4, 1, 10}, {7, 2, 8}, {10, 3, 4}}
	advs := []string{"silent", "splitvote", "equivocate", "flip", "mirror"}
	for _, b := range builds {
		for _, g := range grids {
			a, err := b.build(g.n, g.f, g.c)
			if err != nil {
				t.Fatal(err)
			}
			bound := a.StabilisationBound()
			for _, advName := range advs {
				adv, err := adversary.ByName(advName)
				if err != nil {
					t.Fatal(err)
				}
				for place := 0; place < 3; place++ {
					faulty := make([]int, 0, g.f)
					for j := 0; j < g.f; j++ {
						switch place {
						case 0:
							faulty = append(faulty, j)
						case 1:
							faulty = append(faulty, g.n-1-j)
						default:
							faulty = append(faulty, j*g.n/g.f)
						}
					}
					for seed := int64(1); seed <= 3; seed++ {
						res, err := sim.Run(sim.Config{
							Alg:       a,
							Faulty:    faulty,
							Adv:       adv,
							Seed:      seed,
							MaxRounds: bound + 512,
						})
						if err != nil {
							t.Fatal(err)
						}
						if !res.Stabilised {
							t.Fatalf("%s n=%d f=%d adv=%s place=%d seed=%d: did not stabilise in %d rounds",
								b.name, g.n, g.f, advName, place, seed, res.RoundsRun)
						}
						if res.StabilisationTime > bound {
							t.Fatalf("%s n=%d f=%d adv=%s place=%d seed=%d: T = %d exceeds declared bound %d",
								b.name, g.n, g.f, advName, place, seed, res.StabilisationTime, bound)
						}
					}
				}
			}
		}
	}
}

// TestCountingPersists runs full-length executions (no early stop) and
// requires zero violations after the confirmed stabilisation: once the
// counter agrees, it counts modulo c forever.
func TestCountingPersists(t *testing.T) {
	for _, build := range []func(n, f, c int) (*Counter, error){New, NewChain} {
		a, err := build(7, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, advName := range []string{"silent", "splitvote", "equivocate"} {
			adv, _ := adversary.ByName(advName)
			res, err := sim.RunFull(sim.Config{
				Alg:       a,
				Faulty:    []int{1, 5},
				Adv:       adv,
				Seed:      3,
				MaxRounds: a.StabilisationBound() + 2048,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stabilised {
				t.Fatalf("adv=%s: did not stabilise", advName)
			}
			if res.Violations != 0 {
				t.Fatalf("adv=%s: %d post-stabilisation violations", advName, res.Violations)
			}
		}
	}
}

// TestConfidentAgreementPersists is the counter-level silence
// property: from any configuration in which every correct node holds
// the same confident output register — block states and sweep
// pointers arbitrary — one adversarial round (arbitrary per-receiver
// Byzantine states) leaves every correct node on the incremented
// output with confidence intact.
func TestConfidentAgreementPersists(t *testing.T) {
	a, err := New(7, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	space := a.StateSpace()
	for trial := 0; trial < 500; trial++ {
		faulty := make([]bool, 7)
		for i := 0; i < 2; i++ {
			faulty[rng.Intn(7)] = true
		}
		val := uint64(rng.Intn(8))
		states := make([]alg.State, 7)
		for v := range states {
			// Arbitrary block state and sweep pointers, common (a, d=1).
			s := alg.State(rng.Uint64()) % space
			s = withRegisters(a, s, phaseking.Registers{A: val, D: 1})
			states[v] = s
		}
		for v := 0; v < 7; v++ {
			if faulty[v] {
				continue
			}
			recv := make([]alg.State, 7)
			for u := 0; u < 7; u++ {
				if faulty[u] {
					recv[u] = alg.State(rng.Uint64()) % space
				} else {
					recv[u] = states[u]
				}
			}
			next := a.Step(v, recv, nil)
			regs := a.Registers(next)
			want := (val + 1) % 8
			if regs.A != want || regs.D != 1 {
				t.Fatalf("trial %d: node %d broke confident agreement: a=%d d=%d, want a=%d d=1",
					trial, v, regs.A, regs.D, want)
			}
		}
	}
}

// withRegisters overwrites the consensus registers of a packed state,
// leaving the block state and sweep pointers as they are.
func withRegisters(a *Counter, s alg.State, regs phaseking.Registers) alg.State {
	aField, dField := regs.Encode(a.c)
	s = a.cdc.WithField(s, fieldA, aField)
	return a.cdc.WithField(s, fieldD, dField)
}

func TestOutputTotal(t *testing.T) {
	a, err := New(4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(0); s < a.StateSpace(); s += 7 {
		out := a.Output(0, s)
		if out < 0 || out >= 5 {
			t.Fatalf("Output(0, %d) = %d outside [0, 5)", s, out)
		}
	}
}

package recursion

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/sim"
)

// splitVote is the registry's "splitvote" strategy; the adversary
// package's own tests pin the name.
var splitVote, _ = adversary.ByName("splitvote")

func TestOverhead(t *testing.T) {
	tests := []struct {
		l    Level
		want uint64
	}{
		{Level{K: 4, F: 1}, 2304}, // 3·3·4^4
		{Level{K: 3, F: 3}, 960},  // 3·5·4^3
		{Level{K: 3, F: 7}, 1728}, // 3·9·4^3
		{Level{K: 3, F: 0}, 384},  // 3·2·4^3
	}
	for _, tt := range tests {
		got, err := overhead(tt.l)
		if err != nil {
			t.Fatalf("overhead(%+v): %v", tt.l, err)
		}
		if got != tt.want {
			t.Errorf("overhead(%+v) = %d, want %d", tt.l, got, tt.want)
		}
	}
	if _, err := overhead(Level{K: 2, F: 1}); err == nil {
		t.Error("k = 2 should fail")
	}
	if _, err := overhead(Level{K: 64, F: 1}); err == nil {
		t.Error("(2m)^k overflow should fail")
	}
}

func TestPlanValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Plan
		wantErr bool
	}{
		{"empty", Plan{C: 4}, true},
		{"bad c", Plan{Levels: []Level{{K: 4, F: 1}}, C: 1}, true},
		{"good corollary1", Plan{Levels: []Level{{K: 4, F: 1}}, C: 4}, false},
		{"resilience too high", Plan{Levels: []Level{{K: 4, F: 2}}, C: 4}, true},
		{"n/3 violated", Plan{Levels: []Level{{K: 3, F: 1}}, C: 4}, true},
		{"figure2 shape", Plan{Levels: []Level{{K: 4, F: 1}, {K: 3, F: 3}, {K: 3, F: 7}}, C: 4}, false},
		{"second level too ambitious", Plan{Levels: []Level{{K: 4, F: 1}, {K: 3, F: 4}}, C: 4}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestCorollary1Plan(t *testing.T) {
	p, err := Corollary1(1, 960)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) != 1 || p.Levels[0].K != 4 || p.Levels[0].F != 1 {
		t.Fatalf("unexpected plan %+v", p)
	}
	if _, err := Corollary1(0, 4); err == nil {
		t.Error("f = 0 should fail")
	}
	// f = 2: k = 7 blocks, m = 4, F = 2 < (0+1)*4; N = 7, F < 7/3.
	p2, err := Corollary1(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := PredictedStats(p2)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 7 || st.F != 2 {
		t.Fatalf("Corollary1(2): N,F = %d,%d want 7,2", st.N, st.F)
	}
	// Overhead 3·4·8^7 = 25 165 824: the paper's f^O(f).
	if st.TimeBound != 3*4*(1<<21) {
		t.Fatalf("TimeBound = %d, want %d", st.TimeBound, 3*4*(1<<21))
	}
}

func TestFigure2Plan(t *testing.T) {
	p, err := Figure2(10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := PredictedStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 36 || st.F != 7 {
		t.Fatalf("Figure2: N,F = %d,%d want 36,7", st.N, st.F)
	}
	if st.TimeBound != 2304+960+1728 {
		t.Fatalf("TimeBound = %d, want 4992", st.TimeBound)
	}
}

func TestBuildCorollary1(t *testing.T) {
	p, err := Corollary1(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	top, levels, st, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 || top != levels[0] {
		t.Fatal("Build must return the stack with the top last")
	}
	if top.N() != 4 || top.F() != 1 || top.C() != 8 {
		t.Fatalf("top: N,F,C = %d,%d,%d", top.N(), top.F(), top.C())
	}
	if st.TimeBound != 2304 {
		t.Fatalf("TimeBound = %d, want 2304", st.TimeBound)
	}
	if st.StateSpace != top.StateSpace() {
		t.Fatal("Stats.StateSpace disagrees with the built algorithm")
	}
}

func TestBuildModulusChain(t *testing.T) {
	p, err := Figure2(10)
	if err != nil {
		t.Fatal(err)
	}
	top, levels, _, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	// Modulus chain: trivial base 2304 -> A(4,1,960) -> A(12,3,1728) -> A(36,7,10).
	if got := levels[0].Base().C(); got != 2304 {
		t.Fatalf("base modulus = %d, want 2304", got)
	}
	if got := levels[0].C(); got != 960 {
		t.Fatalf("level 0 modulus = %d, want 960", got)
	}
	if got := levels[1].C(); got != 1728 {
		t.Fatalf("level 1 modulus = %d, want 1728", got)
	}
	if got := top.C(); got != 10 {
		t.Fatalf("top modulus = %d, want 10", got)
	}
	if levels[1].N() != 12 || levels[1].F() != 3 {
		t.Fatalf("mid level: N,F = %d,%d want 12,3", levels[1].N(), levels[1].F())
	}
}

func TestFixedKPlans(t *testing.T) {
	// Theorem 2 with k = 4: resilience doubles-ish each level.
	p, err := FixedK(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := PredictedStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 64 {
		t.Fatalf("N = %d, want 64", st.N)
	}
	if st.F != 7 {
		t.Fatalf("F = %d, want 7 (1 -> 3 -> 7)", st.F)
	}
	if _, err := FixedK(2, 2, 2); err == nil {
		t.Error("k = 2 should fail")
	}
	if _, err := FixedK(4, 0, 2); err == nil {
		t.Error("depth = 0 should fail")
	}
}

func TestFixedKResilienceGrowth(t *testing.T) {
	// The headline scaling: with fixed k, resilience grows by a factor
	// ~k/2 per level while n grows by k, so f = Omega(n^{1-eps}).
	p, err := FixedK(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, f := 1, 0
	for _, l := range p.Levels {
		n *= l.K
		if l.F <= f {
			t.Fatalf("resilience must strictly grow, got %d after %d", l.F, f)
		}
		f = l.F
	}
	if n != 256 || f != 15 {
		t.Fatalf("final n,f = %d,%d want 256,15", n, f)
	}
	// n/f ratio stays moderate: 4·2^L per Theorem 2.
	if ratio := n / f; ratio > 4*(1<<4) {
		t.Fatalf("n/f = %d exceeds Theorem 2 prediction", ratio)
	}
}

func TestFixedKOverflowEnvelope(t *testing.T) {
	// Deep fixed-k recursions exceed 64-bit network sizes and must be
	// reported, not wrapped around.
	if _, err := FixedK(8, 30, 2); err == nil {
		t.Fatal("FixedK(8, 30) should exceed the 64-bit envelope")
	}
}

func TestVaryingKOverflowEnvelope(t *testing.T) {
	// Two phases of the Theorem 3 schedule already exceed 2^63 nodes.
	if _, err := VaryingK(2, 2); err == nil {
		t.Fatal("VaryingK(2) should exceed the 64-bit envelope")
	}
}

func TestOverheadMatchesTauTimesPow(t *testing.T) {
	// Overhead = 3(F+2)(2m)^k for a spread of parameters.
	for k := 3; k <= 6; k++ {
		for _, f := range []int{0, 1, 3, 7} {
			m := (k + 1) / 2
			want := uint64(3 * (f + 2))
			for i := 0; i < k; i++ {
				want *= uint64(2 * m)
			}
			got, err := overhead(Level{K: k, F: f})
			if err != nil {
				t.Fatalf("overhead(k=%d,f=%d): %v", k, f, err)
			}
			if got != want {
				t.Fatalf("overhead(k=%d,f=%d) = %d, want %d", k, f, got, want)
			}
		}
	}
}

func TestVaryingKPlan(t *testing.T) {
	// One phase: k = 4, 8 levels. Resilience grows ~2^8.
	p, err := VaryingK(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Levels) != 8 {
		t.Fatalf("P=1: %d levels, want 2k = 8", len(p.Levels))
	}
	st, err := PredictedStats(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 1<<16 { // 4^8
		t.Fatalf("N = %d, want 65536", st.N)
	}
	if st.F != 255 { // 1 -> 3 -> 7 ... -> 255
		t.Fatalf("F = %d, want 255", st.F)
	}
	// Space grows as O(log^2 f): the predicted bits must stay modest.
	if st.StateBits > 200 {
		t.Fatalf("StateBits = %d, unexpectedly large", st.StateBits)
	}
	if _, err := VaryingK(0, 2); err == nil {
		t.Error("phases = 0 should fail")
	}
}

func TestPredictedStatsMatchBuild(t *testing.T) {
	for _, mk := range []func() (Plan, error){
		func() (Plan, error) { return Corollary1(1, 8) },
		func() (Plan, error) { return FixedK(4, 2, 6) },
		func() (Plan, error) { return Figure2(10) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		top, _, built, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := PredictedStats(p)
		if err != nil {
			t.Fatal(err)
		}
		if pred.N != built.N || pred.F != built.F || pred.C != built.C || pred.TimeBound != built.TimeBound {
			t.Fatalf("predicted %+v != built %+v", pred, built)
		}
		if pred.StateSpace != top.StateSpace() {
			t.Fatalf("predicted space %d != built %d", pred.StateSpace, top.StateSpace())
		}
		// The paper's additive bit accounting is an upper bound on the
		// exact packed size.
		if built.StateBits > pred.StateBits {
			t.Fatalf("built bits %d exceed paper accounting %d", built.StateBits, pred.StateBits)
		}
	}
}

// TestTwoLevelStackStabilises runs A(12,3) — two recursion levels — with
// three Byzantine nodes under the harshest generic adversaries.
func TestTwoLevelStackStabilises(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level simulation in -short mode")
	}
	p := Plan{Levels: []Level{{K: 4, F: 1}, {K: 3, F: 3}}, C: 10}
	top, _, st, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 12 || top.F() != 3 {
		t.Fatalf("N,F = %d,%d want 12,3", top.N(), top.F())
	}
	for _, advName := range []string{"equivocate", "splitvote"} {
		adv, err := adversary.ByName(advName)
		if err != nil {
			t.Fatal(err)
		}
		// Faults: one whole block faulty would need 4 nodes > F; instead
		// spread 3 faults: two in block 0, one in block 1.
		res, err := sim.Run(sim.Config{
			Alg:       top,
			Faulty:    []int{0, 2, 5},
			Adv:       adv,
			Seed:      21,
			MaxRounds: st.TimeBound + 500,
			Window:    120,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stabilised {
			t.Fatalf("%s: did not stabilise within %d rounds", advName, st.TimeBound+500)
		}
		if res.StabilisationTime > st.TimeBound {
			t.Fatalf("%s: T = %d exceeds bound %d", advName, res.StabilisationTime, st.TimeBound)
		}
	}
}

// TestFigure2Stack reproduces the paper's Figure 2 end-to-end: the
// recursive A(4,1) -> A(12,3) -> A(36,7) construction with 7 Byzantine
// nodes, including an entirely faulty sub-block as drawn in the figure.
func TestFigure2Stack(t *testing.T) {
	if testing.Short() {
		t.Skip("36-node simulation in -short mode")
	}
	p, err := Figure2(10)
	if err != nil {
		t.Fatal(err)
	}
	top, _, st, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// Fault pattern mirroring Figure 2: one entire 4-node sub-block of
	// the first 12-node block (nodes 4-7), plus scattered faults.
	faulty := []int{4, 5, 6, 7, 13, 22, 31}
	if len(faulty) != top.F() {
		t.Fatalf("fault pattern has %d faults, want %d", len(faulty), top.F())
	}
	res, err := sim.Run(sim.Config{
		Alg:       top,
		Faulty:    faulty,
		Adv:       splitVote,
		Seed:      4,
		MaxRounds: st.TimeBound + 600,
		Window:    120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatalf("Figure 2 stack did not stabilise within %d rounds", st.TimeBound+600)
	}
	if res.StabilisationTime > st.TimeBound {
		t.Fatalf("T = %d exceeds Theorem 1 bound %d", res.StabilisationTime, st.TimeBound)
	}
	t.Logf("Figure 2 stack: N=36 F=7 stabilised at round %d (bound %d, %d state bits)",
		res.StabilisationTime, st.TimeBound, st.StateBits)
}

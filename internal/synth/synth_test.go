package synth

import (
	"testing"

	"github.com/synchcount/synchcount/internal/sim"
	"github.com/synchcount/synchcount/internal/verify"
)

func TestNewSymmetricValidation(t *testing.T) {
	if _, err := newSymmetric(1, 0, 0); err == nil {
		t.Error("n = 1 should fail")
	}
	if _, err := newSymmetric(13, 1, 0); err == nil {
		t.Error("n > maxN should fail")
	}
	if _, err := newSymmetric(4, 2, 0); err == nil {
		t.Error("3f >= n should fail")
	}
	if _, err := newSymmetric(6, 1, 0); err != nil {
		t.Errorf("n=6 f=1 should be accepted: %v", err)
	}
}

func TestSymmetricEntryAndStep(t *testing.T) {
	// Table: g(0, ones) = bits[ones], g(1, ones) = bits[n+ones].
	// Encode g(0,0)=1, g(0,2)=1, g(1,1)=1 for n = 3.
	bits := uint32(1)<<0 | uint32(1)<<2 | uint32(1)<<(3+1)
	s, err := newSymmetric(3, 0, bits)
	if err != nil {
		t.Fatal(err)
	}
	if s.Entry(0, 0) != 1 || s.Entry(0, 1) != 0 || s.Entry(0, 2) != 1 {
		t.Fatal("Entry(0,·) decode wrong")
	}
	if s.Entry(1, 0) != 0 || s.Entry(1, 1) != 1 {
		t.Fatal("Entry(1,·) decode wrong")
	}
	// Node 1 holds 0 and sees others (1, 1): two ones -> g(0,2) = 1.
	if got := s.Step(1, []uint64{1, 0, 1}, nil); got != 1 {
		t.Fatalf("Step = %d, want 1", got)
	}
	// Own state is excluded from the count: node 0 holds 1, others (0, 1).
	if got := s.Step(0, []uint64{1, 0, 1}, nil); got != s.Entry(1, 1) {
		t.Fatalf("Step = %d, want Entry(1,1)", got)
	}
}

func TestComplementInvolution(t *testing.T) {
	s, err := newSymmetric(5, 1, 0x2f3)
	if err != nil {
		t.Fatal(err)
	}
	back := s.Complement().Complement()
	if back.Bits() != s.Bits() {
		t.Fatalf("Complement is not an involution: %#x -> %#x", s.Bits(), back.Bits())
	}
}

func TestPruneKeepsOnlyPersistentTables(t *testing.T) {
	// g(0,0) must be 1 for any correct candidate with f = 0.
	s, _ := newSymmetric(3, 0, 0)
	if prune(s) {
		t.Fatal("all-zero table must be pruned")
	}
}

// TestSearchFaultFreeFindsCounters is the positive control: at f = 0
// correct anonymous 2-counters exist (e.g. the max-rule), and the
// search must find and verify them.
func TestSearchFaultFreeFindsCounters(t *testing.T) {
	found, err := Search(3, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fault-free anonymous 2-counters found for n = 3; the max-rule must exist")
	}
	// Results are sorted by worst-case time; the best must stabilise
	// within a couple of rounds.
	if found[0].WorstTime > 2 {
		t.Fatalf("best candidate has T = %d, expected <= 2", found[0].WorstTime)
	}
	// Every result must re-verify, and its complement must verify too.
	limit := len(found)
	if limit > 4 {
		limit = 4
	}
	for _, fd := range found[:limit] {
		res, err := verify.Check(fd.Alg, verify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || res.WorstTime != fd.WorstTime {
			t.Fatalf("re-verification mismatch for %s", fd.Alg)
		}
		comp, err := verify.Check(fd.Alg.Complement(), verify.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !comp.OK {
			t.Fatalf("complement of %s must be correct", fd.Alg)
		}
	}
}

// TestSearchFoundCounterCounts runs a synthesised counter in the full
// simulator as an end-to-end sanity check.
func TestSearchFoundCounterCounts(t *testing.T) {
	found, err := Search(4, 0, Options{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("expected at least one n=4 f=0 counter")
	}
	res, err := sim.Run(sim.Config{Alg: found[0].Alg, Seed: 3, MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatal("synthesised counter failed in simulation")
	}
	if res.StabilisationTime > found[0].WorstTime {
		t.Fatalf("simulated T = %d exceeds model-checked worst case %d",
			res.StabilisationTime, found[0].WorstTime)
	}
}

// TestNoAnonymousSingleBitCounters pins the negative synthesis result:
// in the anonymous single-bit class there is NO self-stabilising
// 1-resilient 2-counter for n = 4, 5, 6 — the computer-designed 2-state
// algorithms of [5] (Table 1, row "f=1, n>=6, 1 state bit") necessarily
// use positional information. This is an exact, exhaustively
// model-checked statement, not a sampling claim.
func TestNoAnonymousSingleBitCounters(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		found, err := Search(n, 1, Options{Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(found) != 0 {
			t.Fatalf("unexpected anonymous n=%d f=1 counter: %s", n, found[0].Alg)
		}
	}
}

// TestNoTwoRoleSingleBitCountersSmall extends the negative result to the
// two-role classes at n = 4 and 5.
func TestNoTwoRoleSingleBitCountersSmall(t *testing.T) {
	for _, n := range []int{4, 5} {
		for _, rc := range []struct {
			name string
			fn   roleFunc
		}{{"parity", roleParity}, {"leader", roleLeader}, {"half", roleHalf(n)}} {
			found, err := searchTwoRole(n, 1, rc.fn, rc.name, Options{Limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(found) != 0 {
				t.Fatalf("unexpected two-role(%s) n=%d f=1 counter: %s", rc.name, n, found[0].Alg)
			}
		}
	}
}

// TestNoTwoRoleSingleBitCountersN6 is the expensive member of the family
// (~20s across roles).
func TestNoTwoRoleSingleBitCountersN6(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive n=6 two-role search in -short mode")
	}
	found, err := searchTwoRole(6, 1, roleParity, "parity", Options{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("unexpected two-role(parity) n=6 f=1 counter: %s", found[0].Alg)
	}
}

func TestSearchTwoRoleFaultFree(t *testing.T) {
	// Positive control for the two-role search path.
	found, err := searchTwoRole(3, 0, roleLeader, "leader", Options{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("two-role search must find fault-free counters at n = 3")
	}
}

func TestTwoRoleValidation(t *testing.T) {
	if _, err := newTwoRole(4, 1, func(int) int { return 2 }, "bad", 0); err == nil {
		t.Error("role outside {0,1} should fail")
	}
	if _, err := newTwoRole(13, 1, roleParity, "parity", 0); err == nil {
		t.Error("n > maxN should fail")
	}
}

func TestStrings(t *testing.T) {
	s, _ := newSymmetric(4, 1, 0xff)
	if str := s.String(); len(str) == 0 {
		t.Error("empty Symmetric string")
	}
	tr, _ := newTwoRole(4, 1, roleParity, "parity", 0xff)
	if str := tr.String(); len(str) == 0 {
		t.Error("empty twoRole string")
	}
}

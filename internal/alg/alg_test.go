package alg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTallyBasics(t *testing.T) {
	var tl Tally // zero value must be usable
	tl.Add(3)
	tl.Add(3)
	tl.Add(5)
	if tl.total != 3 {
		t.Fatalf("Total = %d, want 3", tl.total)
	}
	if tl.Count(3) != 2 || tl.Count(5) != 1 || tl.Count(9) != 0 {
		t.Fatalf("unexpected counts: %d %d %d", tl.Count(3), tl.Count(5), tl.Count(9))
	}
	v, ok := tl.Majority()
	if !ok || v != 3 {
		t.Fatalf("Majority = %d,%v want 3,true", v, ok)
	}
	tl.Reset()
	if tl.total != 0 || tl.Count(3) != 0 {
		t.Fatal("Reset did not clear tally")
	}
}

func TestMajorityRequiresStrictMajority(t *testing.T) {
	tests := []struct {
		name   string
		values []uint64
		want   uint64
		wantOK bool
	}{
		{"clear majority", []uint64{1, 1, 1, 2}, 1, true},
		{"exactly half is not a majority", []uint64{1, 1, 2, 2}, 0, false},
		{"empty", nil, 0, false},
		{"all same", []uint64{7, 7, 7}, 7, true},
		{"plurality is not majority", []uint64{1, 1, 2, 3, 4}, 0, false},
		{"majority of odd", []uint64{9, 9, 9, 1, 2}, 9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tl := NewTally(len(tt.values))
			for _, v := range tt.values {
				tl.Add(v)
			}
			v, ok := tl.Majority()
			if ok != tt.wantOK || (ok && v != tt.want) {
				t.Fatalf("Majority(%v) = %d,%v want %d,%v", tt.values, v, ok, tt.want, tt.wantOK)
			}
		})
	}
}

func TestMajorityDefaultsToZero(t *testing.T) {
	if got := Majority([]uint64{1, 2, 3, 4}); got != 0 {
		t.Fatalf("Majority with no absolute majority = %d, want 0", got)
	}
	if got := Majority([]uint64{5, 5, 5, 4}); got != 5 {
		t.Fatalf("Majority = %d, want 5", got)
	}
}

// TestMajorityMatchesTally holds the allocation-free Majority to the
// map-backed Tally on random proposals drawn from small domains, where
// majorities are common.
func TestMajorityMatchesTally(t *testing.T) {
	check := func(raw []uint8, domain uint8) bool {
		values := make([]uint64, len(raw))
		tl := NewTally(len(raw))
		for i, r := range raw {
			values[i] = uint64(r % (domain%4 + 1))
			tl.Add(values[i])
		}
		want, _ := tl.Majority()
		return Majority(values) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { Majority([]uint64{5, 5, 4}) }); allocs != 0 {
		t.Fatalf("Majority allocates %.0f objects per call, want 0", allocs)
	}
}

func TestMinValueWithCountAbove(t *testing.T) {
	tl := NewTally(8)
	for _, v := range []uint64{4, 4, 4, 2, 2, 9, 9, 9} {
		tl.Add(v)
	}
	tests := []struct {
		threshold int
		want      uint64
		wantOK    bool
	}{
		{0, 2, true},  // every value occurs > 0 times; min is 2
		{1, 4, true},  // values with count > 1: {4,9,2}; 2 has count 2 > 1, min 2? no: 2 occurs twice, 2 > 1, so min is 2
		{2, 4, true},  // values with count > 2: {4,9}; min 4
		{3, 0, false}, // nothing occurs more than 3 times
	}
	// Fix the expectation for threshold 1: counts are 4->3, 2->2, 9->3.
	tests[1].want = 2
	for _, tt := range tests {
		v, ok := tl.MinValueWithCountAbove(tt.threshold)
		if ok != tt.wantOK || (ok && v != tt.want) {
			t.Fatalf("MinValueWithCountAbove(%d) = %d,%v want %d,%v",
				tt.threshold, v, ok, tt.want, tt.wantOK)
		}
	}
}

// TestQuickMajorityUnique checks the core soundness property the paper
// relies on: there can be at most one absolute majority value, and if a
// value is held by more than half of the proposals it is always found.
func TestQuickMajorityUnique(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%13) + 1
		values := make([]uint64, size)
		for i := range values {
			values[i] = uint64(rng.Intn(4))
		}
		tl := NewTally(size)
		for _, v := range values {
			tl.Add(v)
		}
		maj, ok := tl.Majority()
		// Recompute by brute force.
		var bruteOK bool
		var brute uint64
		for cand := uint64(0); cand < 4; cand++ {
			count := 0
			for _, v := range values {
				if v == cand {
					count++
				}
			}
			if 2*count > size {
				if bruteOK {
					return false // two absolute majorities: impossible
				}
				brute, bruteOK = cand, true
			}
		}
		if ok != bruteOK {
			return false
		}
		return !ok || maj == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

type fakeAlg struct{ det bool }

func (fakeAlg) N() int                              { return 1 }
func (fakeAlg) F() int                              { return 0 }
func (fakeAlg) C() int                              { return 2 }
func (fakeAlg) StateSpace() uint64                  { return 6 }
func (fakeAlg) Step(int, []State, *rand.Rand) State { return 0 }
func (fakeAlg) Output(int, State) int               { return 0 }
func (f fakeAlg) Deterministic() bool               { return f.det }

func TestIsDeterministicAndStateBits(t *testing.T) {
	if !IsDeterministic(fakeAlg{det: true}) {
		t.Error("IsDeterministic(det) = false")
	}
	if IsDeterministic(fakeAlg{det: false}) {
		t.Error("IsDeterministic(!det) = true")
	}
	if got := StateBits(fakeAlg{}); got != 3 {
		t.Errorf("StateBits = %d, want 3", got)
	}
}

// TestClassWalkVisitsEachReceiverOnce walks random class layouts the
// way batch steppers do — from every ClassHead along NextInClass — and
// requires every correct receiver to be visited exactly once, by the
// head of its own label, and no faulty receiver at all.
func TestClassWalkVisitsEachReceiverOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		p := Patches{Faulty: make([]bool, n)}
		if trial%5 != 0 {
			p.Class = make([]int32, n)
		}
		for v := 0; v < n; v++ {
			p.Faulty[v] = rng.Intn(4) == 0
			if p.Class != nil {
				p.Class[v] = int32(rng.Intn(4)) - 1
			}
		}
		seen := make([]int, n)
		for v := 0; v < n; v++ {
			if p.Faulty[v] || !p.ClassHead(v) {
				continue
			}
			for w := v; w >= 0; w = p.NextInClass(w) {
				if w != v && p.Class[w] != p.Class[v] {
					t.Fatalf("trial %d: head %d (class %d) visited %d (class %d)", trial, v, p.Class[v], w, p.Class[w])
				}
				seen[w]++
			}
		}
		for v := 0; v < n; v++ {
			want := 1
			if p.Faulty[v] {
				want = 0
			}
			if seen[v] != want {
				t.Fatalf("trial %d: receiver %d visited %d times, want %d (faulty %v, class %v)", trial, v, seen[v], want, p.Faulty, p.Class)
			}
		}
	}
}

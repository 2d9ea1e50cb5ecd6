package harness

import (
	"slices"
	"sync"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// testCycle builds a cycle of length len(rows) whose j-th observation
// agrees on output j.
func testCycle(key TrajectoryKey, period, start uint64, rows ...[]alg.State) TrajectoryCycle {
	ring := make([]TrajectoryObs, len(rows))
	for j := range ring {
		ring[j] = TrajectoryObs{Agree: true, Common: j}
	}
	return TrajectoryCycle{Key: key, Period: period, Start: start, Rows: rows, Ring: ring}
}

// lookup looks cfg up under its real hash.
func lookup(m *TrajectoryMemo, k TrajectoryKey, phase uint64, cfg []alg.State) ([]TrajectoryObs, bool) {
	return m.Lookup(k, phase, alg.HashConfig(cfg), cfg)
}

func TestTrajectoryMemoBasics(t *testing.T) {
	k := TrajectoryKey{Alg: "a", Faulty: "0", Adversary: "flip"}
	m := NewTrajectoryMemo(4)
	if _, ok := lookup(m, k, 0, []alg.State{1}); ok {
		t.Fatal("empty memo returned a hit")
	}
	// A cycle of length 4 under period 2 starting at phase 1: rows sit
	// at phases 1, 0, 1, 0.
	if got := m.Add(testCycle(k, 2, 1, []alg.State{1}, []alg.State{2}, []alg.State{3}, []alg.State{4})); got != 4 {
		t.Fatalf("Add indexed %d rows, want 4", got)
	}
	ring, ok := lookup(m, k, 0, []alg.State{2})
	want := []TrajectoryObs{{true, 1}, {true, 2}, {true, 3}, {true, 0}}
	if !ok || !slices.Equal(ring, want) {
		t.Fatalf("Lookup(row 1) = (%v, %v), want the ring rotated to offset 1", ring, ok)
	}
	if _, ok := lookup(m, k, 1, []alg.State{2}); ok {
		t.Fatal("hit at the wrong phase")
	}
	if _, ok := lookup(m, TrajectoryKey{Alg: "b"}, 0, []alg.State{2}); ok {
		t.Fatal("hit under the wrong key")
	}
	// The hash is a filter only: a colliding hash with a different
	// configuration must miss.
	if _, ok := m.Lookup(k, 0, alg.HashConfig([]alg.State{2}), []alg.State{9}); ok {
		t.Fatal("hash collision returned a hit")
	}
	// First write wins: restating a stored cycle indexes nothing.
	if got := m.Add(testCycle(k, 2, 0, []alg.State{2}, []alg.State{3}, []alg.State{4}, []alg.State{1})); got != 0 {
		t.Fatalf("restated cycle indexed %d rows, want 0", got)
	}
	// Full: a new cycle is rejected and not stored.
	if got := m.Add(testCycle(k, 2, 0, []alg.State{7})); got != 0 {
		t.Fatalf("add beyond capacity indexed %d rows", got)
	}
	if m.Len() != 4 || len(m.cycles) != 1 {
		t.Fatalf("Len = %d with %d cycles, want 4 rows in 1 cycle", m.Len(), len(m.cycles))
	}
	hits, misses, rejected := m.Stats()
	if hits != 1 || misses != 4 || rejected != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (1, 4, 1)", hits, misses, rejected)
	}
}

// TestTrajectoryMemoCapacityKeepsPrefix: a cycle that does not fit is
// stored with the prefix of rows that did, and the ring stays whole.
func TestTrajectoryMemoCapacityKeepsPrefix(t *testing.T) {
	k := TrajectoryKey{Alg: "a"}
	m := NewTrajectoryMemo(2)
	if got := m.Add(testCycle(k, 1, 0, []alg.State{1}, []alg.State{2}, []alg.State{3})); got != 2 {
		t.Fatalf("Add indexed %d rows, want 2", got)
	}
	if ring, ok := lookup(m, k, 0, []alg.State{2}); !ok || len(ring) != 3 {
		t.Fatalf("Lookup(row 1) = (%v, %v), want a 3-round ring", ring, ok)
	}
	if _, ok := lookup(m, k, 0, []alg.State{3}); ok {
		t.Fatal("row past the capacity was indexed")
	}
	if len(m.cycles[0].Rows) != 2 {
		t.Fatalf("stored %d rows, want the 2-row prefix", len(m.cycles[0].Rows))
	}
}

func TestTrajectoryMemoDefaultCapacity(t *testing.T) {
	if got := NewTrajectoryMemo(0).capacity; got != defaultTrajectoryMemoCapacity {
		t.Fatalf("default capacity = %d, want %d", got, defaultTrajectoryMemoCapacity)
	}
}

// TestTrajectoryMemoConcurrent hammers the memo from many goroutines —
// run under -race this is the serialisation lockdown. Cycles collide
// across goroutines on purpose: first-write-wins must hold, every hit
// must return the ring of the cycle its configuration belongs to, and
// the capacity must bound the index.
func TestTrajectoryMemoConcurrent(t *testing.T) {
	k := TrajectoryKey{Alg: "a"}
	m := NewTrajectoryMemo(48)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				base := alg.State(i % 32 * 2)
				m.Add(testCycle(k, 1, 0, []alg.State{base}, []alg.State{base + 1}))
				if ring, ok := lookup(m, k, 0, []alg.State{base + 1}); ok {
					want := []TrajectoryObs{{true, 1}, {true, 0}}
					if !slices.Equal(ring, want) {
						t.Errorf("cycle %d returned ring %v, want %v", i%32, ring, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() > 48 {
		t.Fatalf("memo exceeded its bound: %d > 48", m.Len())
	}
}

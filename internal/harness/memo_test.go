package harness

import (
	"fmt"
	"sync"
	"testing"
)

func TestTrajectoryMemoBasics(t *testing.T) {
	m := NewTrajectoryMemo(2)
	k1 := TrajectoryKey{Alg: "a", Faulty: "0", Adversary: "silent", Hash: 1}
	k2 := TrajectoryKey{Alg: "a", Faulty: "0", Adversary: "silent", Hash: 2}
	k3 := TrajectoryKey{Alg: "a", Faulty: "0", Adversary: "silent", Hash: 3}

	if _, ok := m.Get(k1); ok {
		t.Fatal("empty memo returned a hit")
	}
	if !m.Add(k1, "v1") || !m.Add(k2, "v2") {
		t.Fatal("adds within capacity must succeed")
	}
	if m.Add(k3, "v3") {
		t.Fatal("add beyond capacity must be rejected")
	}
	if m.Len() != 2 || m.Cap() != 2 {
		t.Fatalf("Len/Cap = %d/%d, want 2/2", m.Len(), m.Cap())
	}
	// First write wins; a re-add of a present key reports stored
	// without clobbering.
	if !m.Add(k1, "other") {
		t.Fatal("re-add of a present key must report stored")
	}
	if v, ok := m.Get(k1); !ok || v != "v1" {
		t.Fatalf("Get(k1) = (%v, %v), want (v1, true)", v, ok)
	}
	hits, misses, rejected := m.Stats()
	if hits == 0 || misses == 0 || rejected != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want hits>0 misses>0 rejected=1", hits, misses, rejected)
	}
}

func TestTrajectoryMemoDefaultCapacity(t *testing.T) {
	if got := NewTrajectoryMemo(0).Cap(); got != defaultTrajectoryMemoCapacity {
		t.Fatalf("default capacity = %d, want %d", got, defaultTrajectoryMemoCapacity)
	}
}

// TestTrajectoryMemoConcurrent hammers the memo from many goroutines —
// run under -race this is the serialisation lockdown. Keys collide
// across goroutines on purpose: first-write-wins must hold and every
// stored value must be one of the racers' writes for its own key.
func TestTrajectoryMemoConcurrent(t *testing.T) {
	m := NewTrajectoryMemo(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				k := TrajectoryKey{Alg: "a", Hash: uint64(i % 32)}
				m.Add(k, fmt.Sprintf("fact-%d", i%32))
				if v, ok := m.Get(k); ok {
					if v != fmt.Sprintf("fact-%d", i%32) {
						t.Errorf("key %v holds foreign value %v", k, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() > m.Cap() {
		t.Fatalf("memo exceeded its bound: %d > %d", m.Len(), m.Cap())
	}
}

package live

import (
	"sync"
	"testing"
)

func TestReadCellUnpublished(t *testing.T) {
	var c readCell
	if _, _, ok := c.Read(); ok {
		t.Fatal("zero-value cell reported a published value")
	}
}

func TestReadCellLatestWins(t *testing.T) {
	var c readCell
	c.publish(1, 10)
	c.publish(2, 20)
	round, value, ok := c.Read()
	if !ok || round != 2 || value != 20 {
		t.Fatalf("Read = (%d, %d, %v), want (2, 20, true)", round, value, ok)
	}
}

// Hammer one writer against many readers. The invariant the seqlock
// must preserve under the race detector: a read never returns a torn
// (round, value) pair — value always equals the function of round the
// writer published.
func TestReadCellNoTornReads(t *testing.T) {
	var c readCell
	const rounds = 20000
	value := func(r uint64) int { return int(r % 97) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastRound uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				round, v, ok := c.Read()
				if !ok {
					continue
				}
				if v != value(round) {
					t.Errorf("torn read: round %d carries value %d, want %d", round, v, value(round))
					return
				}
				if round < lastRound {
					t.Errorf("read went backwards: %d after %d", round, lastRound)
					return
				}
				lastRound = round
			}
		}()
	}
	for r := uint64(1); r <= rounds; r++ {
		c.publish(r, value(r))
	}
	close(stop)
	wg.Wait()
}

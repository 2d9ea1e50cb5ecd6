package pull

import (
	"sync"
	"testing"

	"github.com/synchcount/synchcount/internal/boost"
	"github.com/synchcount/synchcount/internal/recursion"
)

// FuzzSampler fuzzes the stateless neighbour sampler: for any seed and
// population, every wire must land in range, never select the caller,
// and be a pure function of (seed, node, slot).
func FuzzSampler(f *testing.F) {
	f.Add(int64(1), uint16(2), uint32(0), uint16(0))
	f.Add(int64(-7), uint16(1000), uint32(999), uint16(31))
	f.Add(int64(0), uint16(3), uint32(7), uint16(255))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, nodeRaw uint32, slotRaw uint16) {
		n := int(nRaw)
		if n < 2 {
			t.Skip()
		}
		s, err := newSampler(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		node := int(nodeRaw) % n
		slot := int(slotRaw)
		tgt := s.Target(node, slot)
		if tgt < 0 || tgt >= n {
			t.Fatalf("target %d out of [0,%d)", tgt, n)
		}
		if tgt == node {
			t.Fatalf("node %d sampled itself", node)
		}
		again, err := newSampler(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		if again.Target(node, slot) != tgt {
			t.Fatal("sampler not deterministic under seed")
		}
	})
}

var (
	fuzzTopOnce sync.Once
	fuzzTop     *boost.Counter
)

// fuzzBoostTop builds (once) the small A(4,1) stack the wire-table fuzz
// target wraps.
func fuzzBoostTop(t *testing.T) *boost.Counter {
	t.Helper()
	fuzzTopOnce.Do(func() {
		p, err := recursion.Corollary1(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		top, _, _, err := recursion.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		fuzzTop = top
	})
	return fuzzTop
}

// FuzzWireTable fuzzes the packed fixed-wiring table of the Corollary 5
// counter: for any wire seed and sample size, construction must not
// panic, every block wire must stay inside its block, every tally wire
// inside the network, and the whole table must be deterministic in the
// seed.
func FuzzWireTable(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(-123456789), uint8(16))
	f.Add(int64(0), uint8(255))
	f.Fuzz(func(t *testing.T, wireSeed int64, mRaw uint8) {
		m := 3 + int(mRaw)%30
		top := fuzzBoostTop(t)
		s, err := NewSampled(top, m, true, wireSeed)
		if err != nil {
			t.Fatal(err)
		}
		again, err := NewSampled(top, m, true, wireSeed)
		if err != nil {
			t.Fatal(err)
		}
		n := top.N() / top.K()
		for v := 0; v < top.N(); v++ {
			for blk := 0; blk < top.K(); blk++ {
				for i := 0; i < m; i++ {
					w := s.blockWire(v, blk, i)
					if w < blk*n || w >= (blk+1)*n {
						t.Fatalf("block wire (%d,%d,%d) = %d escapes block", v, blk, i, w)
					}
					if again.blockWire(v, blk, i) != w {
						t.Fatal("wire table not deterministic under seed")
					}
				}
			}
			for i := 0; i < m; i++ {
				w := s.tallyWire(v, i)
				if w < 0 || w >= top.N() {
					t.Fatalf("tally wire (%d,%d) = %d out of range", v, i, w)
				}
				if again.tallyWire(v, i) != w {
					t.Fatal("wire table not deterministic under seed")
				}
			}
		}
	})
}

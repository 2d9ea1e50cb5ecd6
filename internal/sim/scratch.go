package sim

import (
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
)

// runScratch is the per-run working set of the simulator: every
// O(n)-sized slice and RNG a run needs. Campaign trials churn through
// runs by the million, so run() recycles these through a sync.Pool —
// effectively per-worker reuse — instead of re-allocating ~n slices
// and 2n RNG objects per trial (the ROADMAP hot-path item). RNGs are
// reseeded on reuse, which reproduces the historical allocation-per-
// run seed streams exactly.
//
// Pooling is bypassed when the caller observes rounds via
// Config.OnRound: the observer receives the states and outputs slices
// directly and may legitimately retain them after the run (the figure
// harnesses record traces), which a recycled slice would corrupt.
type runScratch struct {
	faulty   []bool
	states   []alg.State
	next     []alg.State
	recv     []alg.State
	outputs  []int
	seeder   *rand.Rand
	initRng  *rand.Rand
	advRng   *rand.Rand
	nodeRngs []*rand.Rand
	nodeSrcs []*lazySource

	// Vectorized-kernel working set (see kernel.go): the ascending
	// faulty-sender list and the per-receiver patch matrix, all backed
	// by pooled storage.
	faultyIdx []int
	patchFlat []alg.State
	patchRows [][]alg.State
	rowClass  []int32
	patches   alg.Patches

	// Bit-sliced working set (see kernel.go): the transposed state and
	// patch planes, provisioned only for runs whose algorithm takes the
	// bit-sliced path; backing words recycle with the scratch.
	planes alg.BitPlanes

	// Fast-forward engine state (see fastforward.go): the Brent
	// checkpoint, configuration scratch and observation ring recycle
	// with the rest of the working set. arm/disarm reset it per run.
	ff ffEngine
}

var scratchPool sync.Pool

// newScratch returns an unpooled scratch for n nodes.
func newScratch(n int) *runScratch {
	s := &runScratch{}
	s.resize(n)
	return s
}

// getScratch fetches (or creates) a pooled scratch sized for n nodes.
func getScratch(n int) *runScratch {
	s, _ := scratchPool.Get().(*runScratch)
	if s == nil {
		s = &runScratch{}
	}
	s.resize(n)
	return s
}

// putScratch returns a scratch to the pool.
func putScratch(s *runScratch) { scratchPool.Put(s) }

// resize (re)provisions the working set for n nodes and clears the
// fault mask; the state slices need no clearing because every run
// fully overwrites them before reading.
func (s *runScratch) resize(n int) {
	if cap(s.faulty) < n {
		s.faulty = make([]bool, n)
		s.states = make([]alg.State, n)
		s.next = make([]alg.State, n)
		s.recv = make([]alg.State, n)
		s.outputs = make([]int, n)
		s.rowClass = make([]int32, n)
	}
	s.faulty = s.faulty[:n]
	for i := range s.faulty {
		s.faulty[i] = false
	}
	s.states = s.states[:n]
	s.next = s.next[:n]
	s.recv = s.recv[:n]
	s.outputs = s.outputs[:n]
	s.rowClass = s.rowClass[:n]
	if s.seeder == nil {
		s.seeder = rand.New(rand.NewSource(0))
		s.initRng = rand.New(rand.NewSource(0))
		s.advRng = rand.New(rand.NewSource(0))
	}
	for len(s.nodeRngs) < n {
		src := &lazySource{inner: rand.NewSource(0).(rand.Source64)}
		s.nodeSrcs = append(s.nodeSrcs, src)
		s.nodeRngs = append(s.nodeRngs, rand.New(src))
	}
}

// lazySource defers the expensive seed scramble of math/rand (~600
// mixing iterations per source) until the stream is first consulted.
// Per-node streams are seeded every trial but only consulted by
// randomised algorithms in rounds that actually flip coins, so trials
// skip the scramble for every node that stays silent. Values are
// bit-identical to an eagerly seeded source: Seed only records the
// seed, and the first draw performs exactly the scramble the eager
// path would have.
type lazySource struct {
	inner   rand.Source64
	pending int64
	dirty   bool
}

func (l *lazySource) Seed(seed int64) { l.pending, l.dirty = seed, true }

func (l *lazySource) materialize() {
	if l.dirty {
		l.inner.Seed(l.pending)
		l.dirty = false
	}
}

func (l *lazySource) Int63() int64 {
	l.materialize()
	return l.inner.Int63()
}

func (l *lazySource) Uint64() uint64 {
	l.materialize()
	return l.inner.Uint64()
}

// seedAll reproduces run()'s historical seed derivation: independent
// streams for initial states, the adversary and every node, all drawn
// from the master seed in a fixed order.
//
// withNodeRngs skips the per-node streams: deterministic algorithms
// never consult them, and reseeding n math/rand sources is by far the
// most expensive part of starting a trial (~600 seed-scrambling
// iterations each). The node draws are the last thing seedAll takes
// from the master seeder, so skipping them leaves every other stream —
// and therefore every historical result — untouched.
func (s *runScratch) seedAll(seed int64, n int, withNodeRngs bool) (advBase int64) {
	s.seeder.Seed(seed)
	s.initRng.Seed(s.seeder.Int63())
	s.advRng.Seed(s.seeder.Int63())
	advBase = s.seeder.Int63()
	if withNodeRngs {
		for i := 0; i < n; i++ {
			// Record the seed only; the scramble happens lazily on the
			// node's first draw (see lazySource).
			s.nodeSrcs[i].Seed(s.seeder.Int63())
		}
	}
	return advBase
}

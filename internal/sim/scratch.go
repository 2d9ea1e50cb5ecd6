package sim

import (
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
)

// runScratch is the per-run working set of the simulator: every
// O(n)-sized slice and RNG a run needs. Campaign trials churn through
// runs by the million, so the run skeleton recycles these through a
// sync.Pool — effectively per-worker reuse — instead of re-allocating
// ~n slices and RNGs per trial (the ROADMAP hot-path item). RNGs are
// reseeded on reuse, which reproduces the historical allocation-per-
// run seed streams exactly.
//
// Pooling is bypassed when the caller observes rounds via an OnRound
// hook: the observer receives the states and outputs slices directly
// and may legitimately retain them after the run (the figure harnesses
// record traces), which a recycled slice would corrupt.
type runScratch struct {
	faulty  []bool
	states  []alg.State
	next    []alg.State
	outputs []int
	seeder  *rand.Rand
	initRng *rand.Rand
	advRng  *rand.Rand

	// Node streams. A math/rand source costs ~5 KB, so n eagerly
	// allocated streams would be 5 GB at the pulling model's n = 10^6.
	// They are therefore doubly lazy: seeds are drawn up front by
	// seedAll (the stream order the eager historical loop used), but
	// the source behind a node's stream is allocated only on the node's
	// first draw, and deterministic runs skip the seed draws entirely.
	nodeSeeds []int64
	nodeSrcs  []*lazySource
	nodeRngs  []*rand.Rand
	seeded    bool

	// Broadcast-kernel working set (see kernel.go): the shared receive
	// base, the ascending faulty-sender list and the per-receiver patch
	// matrix, provisioned by preparePatches so that pulling-model runs
	// never pay for them.
	recv      []alg.State
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
		s.outputs = make([]int, n)
	}
	s.faulty = s.faulty[:n]
	for i := range s.faulty {
		s.faulty[i] = false
	}
	s.states = s.states[:n]
	s.next = s.next[:n]
	s.outputs = s.outputs[:n]
	if s.seeder == nil {
		s.seeder = rand.New(rand.NewSource(0))
		s.initRng = rand.New(rand.NewSource(0))
		s.advRng = rand.New(rand.NewSource(0))
	}
	s.seeded = false
}

// seedAll reproduces the historical seed derivation of a run:
// independent streams for initial states, the adversary and every
// node, all drawn from the master seed in a fixed order.
//
// withNodeRngs skips the per-node seed draws: deterministic algorithms
// never consult node streams. The node draws are the last thing seedAll
// takes from the master seeder, so skipping them leaves every other
// stream — and therefore every historical result — untouched.
func (s *runScratch) seedAll(seed int64, n int, withNodeRngs bool) (advBase int64) {
	s.seeder.Seed(seed)
	s.initRng.Seed(s.seeder.Int63())
	s.advRng.Seed(s.seeder.Int63())
	advBase = s.seeder.Int63()
	if withNodeRngs {
		s.growStreams(n)
		for i := 0; i < n; i++ {
			s.nodeSeeds[i] = s.seeder.Int63()
			if s.nodeSrcs[i] != nil {
				// Already materialised by an earlier pooled run: record
				// the new seed; the scramble happens on first draw.
				s.nodeSrcs[i].Seed(s.nodeSeeds[i])
			}
		}
		s.seeded = true
	}
	return advBase
}

// growStreams extends the node-stream slots to n nodes, unmaterialised.
func (s *runScratch) growStreams(n int) {
	for len(s.nodeSeeds) < n {
		s.nodeSeeds = append(s.nodeSeeds, 0)
		s.nodeSrcs = append(s.nodeSrcs, nil)
		s.nodeRngs = append(s.nodeRngs, nil)
	}
}

// rng returns node v's random stream, materialising it on first use.
// It returns nil for runs of deterministic algorithms (which never
// consult it) — the contract of alg.Algorithm's "rng may be nil for
// deterministic algorithms".
func (s *runScratch) rng(v int) *rand.Rand {
	if !s.seeded {
		return nil
	}
	if s.nodeRngs[v] == nil {
		src := &lazySource{inner: rand.NewSource(0).(rand.Source64)}
		src.Seed(s.nodeSeeds[v])
		s.nodeSrcs[v] = src
		s.nodeRngs[v] = rand.New(src)
	}
	return s.nodeRngs[v]
}

// provisionStreams readies nodeRngs as one slice indexed by node, the
// form the broadcast steppers take: every stream of a randomised run is
// materialised, while a deterministic run's entries are ones its
// algorithm never consults.
func (s *runScratch) provisionStreams(n int) {
	s.growStreams(n)
	if s.seeded {
		for v := 0; v < n; v++ {
			s.rng(v)
		}
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

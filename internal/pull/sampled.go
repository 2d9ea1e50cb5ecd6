package pull

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/boost"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// SampledCounter is the randomised pulling-model counter of Theorem 4:
// the resilience-boosting construction of Theorem 1 with its two
// broadcast-dependent steps — the leader-block majority vote and the
// phase king quorum checks — replaced by uniform sampling of M states
// (with repetition, per Lemma 9), and quorum thresholds N−F and F
// replaced by ⌈2M/3⌉ and ⌊M/3⌋ (Lemma 8).
//
// Per round, a correct node pulls
//
//	(n−1) blockmates + k·M block samples + M phase king samples + 1 king
//
// messages, i.e. O(k·M) = O(k log η) for M = Θ(log η) — against N−1 for
// the deterministic broadcast embedding.
//
// With Pseudo set, all sampling wires are drawn once at construction and
// reused every round: the pseudo-random counters of Corollary 5, which
// stabilise with high probability against an oblivious adversary and
// then count deterministically forever.
type SampledCounter struct {
	top    *boost.Counter
	m      int
	pseudo bool

	pkCfg phaseking.Config

	// Fixed wiring for the pseudo-random variant, packed node-major
	// into one flat table: (k+1)·M wires per node — k·M block-sample
	// wires followed by M tally wires. Flat int32 storage quarters the
	// memory of the former [][][]int layout and removes two pointer
	// chases from every sample.
	wires      []int32
	wireStride int

	pool sync.Pool // *sampledScratch, shared across concurrent trials
}

var (
	_ Algorithm    = (*SampledCounter)(nil)
	_ batchStepper = (*SampledCounter)(nil)
)

// NewSampled wraps the boosted counter with sampled communication.
// samples is M; pseudo selects the Corollary 5 fixed-wiring variant,
// whose wires are drawn from wireSeed.
func NewSampled(top *boost.Counter, samples int, pseudo bool, wireSeed int64) (*SampledCounter, error) {
	if top == nil {
		return nil, fmt.Errorf("pull: nil boosted counter")
	}
	if samples < 3 {
		return nil, fmt.Errorf("pull: need at least 3 samples, got %d", samples)
	}
	s := &SampledCounter{
		top:    top,
		m:      samples,
		pseudo: pseudo,
		pkCfg: phaseking.Config{
			C: uint64(top.C()),
			Thresholds: phaseking.Thresholds{
				Strong: (2*samples + 2) / 3, // ⌈2M/3⌉
				Weak:   samples / 3,         // counts > ⌊M/3⌋ pass the weak check
			},
		},
	}
	if err := s.pkCfg.Validate(); err != nil {
		return nil, err
	}
	if pseudo {
		if top.N() > math.MaxInt32 {
			return nil, fmt.Errorf("pull: %d nodes overflow the packed wire table", top.N())
		}
		rng := rand.New(rand.NewSource(wireSeed))
		n := top.N() / top.K()
		s.wireStride = (top.K() + 1) * samples
		s.wires = make([]int32, top.N()*s.wireStride)
		for v := 0; v < top.N(); v++ {
			base := v * s.wireStride
			for blk := 0; blk < top.K(); blk++ {
				for i := 0; i < samples; i++ {
					s.wires[base+blk*samples+i] = int32(blk*n + rng.Intn(n))
				}
			}
			for i := 0; i < samples; i++ {
				s.wires[base+top.K()*samples+i] = int32(rng.Intn(top.N()))
			}
		}
	}
	return s, nil
}

// blockWire returns fixed wire idx of node v into block blk.
func (s *SampledCounter) blockWire(v, blk, idx int) int {
	return int(s.wires[v*s.wireStride+blk*s.m+idx])
}

// tallyWire returns fixed phase-king wire idx of node v.
func (s *SampledCounter) tallyWire(v, idx int) int {
	return int(s.wires[v*s.wireStride+s.top.K()*s.m+idx])
}

// M returns the sample size.
func (s *SampledCounter) M() int { return s.m }

// Pseudo reports whether the fixed-wiring (Corollary 5) variant is
// active.
func (s *SampledCounter) Pseudo() bool { return s.pseudo }

// Boosted returns the underlying deterministic construction.
func (s *SampledCounter) Boosted() *boost.Counter { return s.top }

// PullsPerRound returns the deterministic per-node pull count:
// (n−1) + k·M + M + 1.
func (s *SampledCounter) PullsPerRound() uint64 {
	n := s.top.N() / s.top.K()
	return uint64(n-1) + uint64(s.top.K()*s.m) + uint64(s.m) + 1
}

// Deterministic implements alg.Deterministic: with fixed wiring over a
// deterministic base construction, no step ever flips a coin.
func (s *SampledCounter) Deterministic() bool {
	return s.pseudo && alg.IsDeterministic(s.top)
}

// N implements Algorithm.
func (s *SampledCounter) N() int { return s.top.N() }

// F implements Algorithm.
func (s *SampledCounter) F() int { return s.top.F() }

// C implements Algorithm.
func (s *SampledCounter) C() int { return s.top.C() }

// StateSpace implements Algorithm: identical to the deterministic
// construction — sampling costs no extra state (the paper's S(P) =
// S(A) + ⌈log(C+1)⌉ + 1).
func (s *SampledCounter) StateSpace() uint64 { return s.top.StateSpace() }

// Output implements Algorithm.
func (s *SampledCounter) Output(node int, st alg.State) int { return s.top.Output(node, st) }

// Step implements Algorithm.
func (s *SampledCounter) Step(v int, own alg.State, pull Puller, rng *rand.Rand) alg.State {
	top := s.top
	k := top.K()
	n := top.N() / k
	i, j := top.BlockOf(v), top.IndexInBlock(v)

	// (1) Full-information update of the block algorithm A_i: blocks are
	// small, so the paper runs them deterministically ("if N is small we
	// can perform the step using the deterministic algorithm").
	blockRecv := make([]alg.State, n)
	for jj := 0; jj < n; jj++ {
		u := i*n + jj
		if u == v {
			blockRecv[jj] = top.BaseState(own)
			continue
		}
		blockRecv[jj] = top.BaseState(pull(u))
	}
	newBase := top.Base().Step(j, blockRecv, rng)

	// (2) Sampled leader vote (Lemma 9): M states per block, with
	// repetition.
	type sample struct {
		target int
		state  alg.State
	}
	blockSamples := make([][]sample, k)
	tally := alg.NewTally(s.m)
	blockVotes := make([]uint64, k)
	for blk := 0; blk < k; blk++ {
		samples := make([]sample, s.m)
		tally.Reset()
		for idx := 0; idx < s.m; idx++ {
			var target int
			if s.pseudo {
				target = s.blockWire(v, blk, idx)
			} else {
				target = blk*n + rng.Intn(n)
			}
			st := pull(target)
			samples[idx] = sample{target: target, state: st}
			_, _, ptr := top.Leader(target, st)
			tally.Add(ptr)
		}
		blockSamples[blk] = samples
		vote, _ := tally.Majority()
		blockVotes[blk] = vote
	}
	bigB := alg.Majority(blockVotes)
	if bigB >= uint64(k) {
		bigB = 0
	}
	tally.Reset()
	for _, smp := range blockSamples[bigB] {
		r, _, _ := top.Leader(smp.target, smp.state)
		tally.Add(r)
	}
	bigR, _ := tally.Majority()
	bigR %= top.Tau()

	// (3) Sampled phase king (Lemma 8): M register samples from the whole
	// network, thresholds 2/3·M and 1/3·M.
	tally.Reset()
	for idx := 0; idx < s.m; idx++ {
		var target int
		if s.pseudo {
			target = s.tallyWire(v, idx)
		} else {
			target = rng.Intn(top.N())
		}
		tally.Add(top.Registers(pull(target)).A)
	}
	// One adaptive pull for the king selected by R.
	king := int(phaseking.KingOf(bigR))
	kingA := top.Registers(pull(king)).A

	regs := phaseking.Step(s.pkCfg, top.Registers(own), bigR, tally, kingA)
	st, err := top.Encode(newBase, regs)
	if err != nil {
		// Unreachable: newBase comes from the base algorithm.
		return own
	}
	return st
}

// sampledScratch is the pooled working set of StepAll: per-round decode
// caches of every correct node's packed state (base field, leader
// registers, phase king register A) plus the per-node vote buffers.
// Decoding once per node per round — instead of once per sample — is
// where the sparse path beats the reference loop: the reference decodes
// O((k+1)·M) sampled states per node per round.
type sampledScratch struct {
	blockRecv  []alg.State // block-size receive vector for the base step
	baseOf     []alg.State // [N] base field of start-of-round states (correct nodes)
	ldrR       []uint64    // [N] leader round counter (correct nodes)
	ldrPtr     []uint64    // [N] leader block pointer (correct nodes)
	regA       []uint64    // [N] phase king register A (correct nodes)
	sampleR    []uint64    // [k·M] leader round counters of this node's block samples
	blockVotes []uint64    // [k]
	ptrTally   *alg.DenseTally
	rTally     *alg.DenseTally
	voteTally  *alg.DenseTally
	aTally     *alg.DenseTally
}

func (s *SampledCounter) getScratch() *sampledScratch {
	sc, _ := s.pool.Get().(*sampledScratch)
	if sc == nil {
		sc = &sampledScratch{
			ptrTally:  alg.NewDenseTally(0),
			rTally:    alg.NewDenseTally(0),
			voteTally: alg.NewDenseTally(0),
			aTally:    alg.NewDenseTally(0),
		}
	}
	top := s.top
	N, k := top.N(), top.K()
	if cap(sc.baseOf) < N {
		sc.baseOf = make([]alg.State, N)
		sc.ldrR = make([]uint64, N)
		sc.ldrPtr = make([]uint64, N)
		sc.regA = make([]uint64, N)
	}
	sc.baseOf = sc.baseOf[:N]
	sc.ldrR = sc.ldrR[:N]
	sc.ldrPtr = sc.ldrPtr[:N]
	sc.regA = sc.regA[:N]
	if cap(sc.blockRecv) < N/k {
		sc.blockRecv = make([]alg.State, N/k)
	}
	sc.blockRecv = sc.blockRecv[:N/k]
	if cap(sc.sampleR) < k*s.m {
		sc.sampleR = make([]uint64, k*s.m)
	}
	sc.sampleR = sc.sampleR[:k*s.m]
	if cap(sc.blockVotes) < k {
		sc.blockVotes = make([]uint64, k)
	}
	sc.blockVotes = sc.blockVotes[:k]
	sc.ptrTally.Resize(uint64(k))
	sc.rTally.Resize(top.Tau())
	sc.voteTally.Resize(uint64(k))
	sc.aTally.Resize(uint64(top.C()) + 2)
	return sc
}

// StepAll implements batchStepper: the same transition as Step for
// every correct node, in ascending order with reference pull/rng
// ordering, over pooled flat scratch — no per-node allocation and no
// dense receive matrix.
func (s *SampledCounter) StepAll(env *BatchEnv) {
	top := s.top
	k := top.K()
	N := top.N()
	nblk := N / k
	needRng := !(s.pseudo && alg.IsDeterministic(top))
	sc := s.getScratch()
	defer s.pool.Put(sc)

	// Decode every correct node's packed state once for the round.
	states := env.States()
	for u := 0; u < N; u++ {
		if env.Faulty(u) {
			continue
		}
		st := states[u]
		sc.baseOf[u] = top.BaseState(st)
		r, _, ptr := top.Leader(u, st)
		sc.ldrR[u], sc.ldrPtr[u] = r, ptr
		sc.regA[u] = top.Registers(st).A
	}

	for v := 0; v < N; v++ {
		if env.Faulty(v) {
			continue
		}
		i, j := top.BlockOf(v), top.IndexInBlock(v)
		var rng *rand.Rand
		if needRng {
			rng = env.Rng(v)
		}

		// (1) Blockmates, ascending — adversary draws for faulty
		// blockmates happen here, before any sampling draw, exactly as
		// in the reference Step.
		for jj := 0; jj < nblk; jj++ {
			u := i*nblk + jj
			switch {
			case u == v:
				sc.blockRecv[jj] = sc.baseOf[v]
			case env.Faulty(u):
				sc.blockRecv[jj] = top.BaseState(env.Pull(u, v))
			default:
				sc.blockRecv[jj] = sc.baseOf[u]
			}
		}
		newBase := top.Base().Step(j, sc.blockRecv, rng)

		// (2) Sampled leader vote.
		for blk := 0; blk < k; blk++ {
			sc.ptrTally.Reset()
			for idx := 0; idx < s.m; idx++ {
				var target int
				if s.pseudo {
					target = s.blockWire(v, blk, idx)
				} else {
					target = blk*nblk + rng.Intn(nblk)
				}
				var r, ptr uint64
				if env.Faulty(target) {
					r, _, ptr = top.Leader(target, env.Pull(target, v))
				} else {
					r, ptr = sc.ldrR[target], sc.ldrPtr[target]
				}
				sc.sampleR[blk*s.m+idx] = r
				sc.ptrTally.Add(ptr)
			}
			vote, _ := sc.ptrTally.Majority()
			sc.blockVotes[blk] = vote
		}
		sc.voteTally.Reset()
		for _, bv := range sc.blockVotes {
			sc.voteTally.Add(bv)
		}
		bigB, _ := sc.voteTally.Majority()
		if bigB >= uint64(k) {
			bigB = 0
		}
		sc.rTally.Reset()
		for idx := 0; idx < s.m; idx++ {
			sc.rTally.Add(sc.sampleR[int(bigB)*s.m+idx])
		}
		bigR, _ := sc.rTally.Majority()
		bigR %= top.Tau()

		// (3) Sampled phase king.
		sc.aTally.Reset()
		for idx := 0; idx < s.m; idx++ {
			var target int
			if s.pseudo {
				target = s.tallyWire(v, idx)
			} else {
				target = rng.Intn(N)
			}
			if env.Faulty(target) {
				sc.aTally.Add(top.Registers(env.Pull(target, v)).A)
			} else {
				sc.aTally.Add(sc.regA[target])
			}
		}
		king := int(phaseking.KingOf(bigR))
		var kingA uint64
		if king >= 0 && king < N && !env.Faulty(king) {
			kingA = sc.regA[king]
		} else {
			// Out-of-range kings pull the zero state, faulty kings pull
			// the adversary — both via Pull, as in the reference.
			kingA = top.Registers(env.Pull(king, v)).A
		}

		regs := phaseking.Step(s.pkCfg, top.Registers(states[v]), bigR, sc.aTally, kingA)
		st, err := top.Encode(newBase, regs)
		if err != nil {
			// Unreachable: newBase comes from the base algorithm.
			st = states[v]
		}
		env.Set(v, st)
	}
}

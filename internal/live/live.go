// Package live runs synchronous counting algorithms as an actual
// concurrent service: every node is a goroutine running a registry
// algorithm, exchanging codec-encoded state frames over an in-process
// transport, with a synchroniser layer that reconstructs the paper's
// round abstraction from per-round barriers with timeouts — a node that
// misses a deadline is counted faulty for that round and the run
// degrades gracefully instead of stalling. A node whose view differs
// from the round's broadcast column runs the algorithm's unmodified
// Step on it; in a clean round of a deterministic batch-stepping stack,
// a node whose view equals the column takes its entry of the one
// StepAll the synchroniser ran over it, which is the same function.
//
// On top of the runtime sits a deterministic seeded chaos injector
// (crash/restart, drop/duplicate/corrupt/delay, stragglers, partitions;
// see Schedule) whose fault timeline replays byte-identically from a
// seed, and a lock-free read side (readCell) serving counter reads
// concurrently without ever blocking the protocol loop. Recovery
// latency — rounds from a burst's last actually-injected fault to
// re-confirmed correct counting — is measured online and checked
// against the stack's declared stabilisation bound, which is what turns
// the repository's simulated lockstep artefact into a deployable
// self-stabilising clock service with a testable contract.
package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/sim"
)

// defaultRoundTimeout is the per-barrier deadline when Config leaves it
// zero: generous against scheduler noise, tight enough that a genuinely
// dead node costs one timeout rather than a hang.
const defaultRoundTimeout = time.Second

// DefaultWindowFor is the simulator's confirmation window
// (sim.DefaultWindowFor): two full counter cycles plus slack, so
// accidental agreement is never mistaken for stabilisation.
func DefaultWindowFor(c int) uint64 { return sim.DefaultWindowFor(c) }

// Config describes one live run.
type Config struct {
	// Alg is the algorithm under test, built by internal/registry or
	// any other constructor; it must follow the alg.Algorithm contract
	// (Step safe for concurrent use, no receiver mutation).
	Alg alg.Algorithm

	// Seed drives all randomness: node initial/restart states, per-node
	// coins of randomised algorithms, and the chaos link decisions via
	// Schedule.Seed (conventionally the same value).
	Seed int64

	// Rounds is the scripted horizon. Zero takes Schedule.Rounds; both
	// zero is an error.
	Rounds uint64

	// Window is the confirmation window (consecutive correct counting
	// rounds before declaring (re-)stabilisation). Zero takes
	// DefaultWindowFor(Alg.C()).
	Window uint64

	// RoundTimeout is the per-barrier deadline. Zero takes one second
	// (defaultRoundTimeout). A healthy in-process run never hits it, so
	// results stay deterministic; it exists to cut stragglers loose.
	RoundTimeout time.Duration

	// Schedule is the chaos timeline; nil runs fault-free.
	Schedule *Schedule

	// WallBudget, when positive, stops the run once the wall clock is
	// spent (reported via Report.BudgetExhausted, not an error).
	WallBudget time.Duration

	// OnRound, when non-nil, observes every synchronised round: the
	// agreement verdict over on-time live nodes and how many made the
	// barrier. Used by tests; keep it fast.
	OnRound func(round uint64, agree bool, common int, onTime int)
}

// Runtime is a live network: n node goroutines, a router applying the
// chaos schedule, and the synchroniser driving per-round barriers.
type Runtime struct {
	cfg      Config
	n        int
	space    uint64
	timeout  time.Duration
	horizon  uint64
	maxDelay uint64 // largest schedule DelayBy: bounds arena epoch lifetime

	cells []readCell

	// Shared with node goroutines. gate is the open round's arrival
	// gate (see gateWord): nodes count their committed frames on it, and
	// the one whose frame completes the round sends the single token on
	// wake that the synchroniser parks on. The counters are written by
	// nodes and read once every node has exited.
	gate          atomic.Uint64
	wake          chan struct{}
	wg            sync.WaitGroup
	decodeErrors  atomic.Uint64
	staleBatches  atomic.Uint64
	staleMessages atomic.Uint64
	sharedSteps   atomic.Uint64

	// shared is the algorithm's batch step when a clean round may be
	// stepped once for every node: set only for a deterministic
	// alg.BatchStepper, whose StepAll over the broadcast column with no
	// faulty senders (cleanRound) and no coins (noCoins) equals each
	// node's Step on that column. Nil keeps every node on its own Step.
	shared     alg.BatchStepper
	cleanRound *alg.Patches
	noCoins    []*rand.Rand

	running atomic.Bool
}

// New validates the configuration and prepares a runtime. Run may be
// called once.
func New(cfg Config) (*Runtime, error) {
	if cfg.Alg == nil {
		return nil, errors.New("live: nil algorithm")
	}
	n := cfg.Alg.N()
	if n < 2 {
		return nil, fmt.Errorf("live: a live network needs at least 2 nodes, the algorithm runs on %d", n)
	}
	if cfg.Alg.C() < 2 {
		return nil, fmt.Errorf("live: counter modulus %d < 2", cfg.Alg.C())
	}
	horizon := cfg.Rounds
	if cfg.Schedule != nil {
		if err := cfg.Schedule.Validate(); err != nil {
			return nil, err
		}
		if cfg.Schedule.N != n {
			return nil, fmt.Errorf("live: schedule is for n = %d nodes, algorithm runs on %d", cfg.Schedule.N, n)
		}
		if horizon == 0 {
			horizon = cfg.Schedule.Rounds
		}
	}
	if horizon == 0 {
		return nil, errors.New("live: no horizon: set Config.Rounds or attach a Schedule")
	}
	timeout := cfg.RoundTimeout
	if timeout <= 0 {
		timeout = defaultRoundTimeout
	}
	var maxDelay uint64
	if cfg.Schedule != nil {
		maxDelay = cfg.Schedule.maxDelayBy()
	}
	rt := &Runtime{
		cfg:      cfg,
		n:        n,
		space:    cfg.Alg.StateSpace(),
		timeout:  timeout,
		horizon:  horizon,
		maxDelay: maxDelay,
		cells:    make([]readCell, n),
		wake:     make(chan struct{}, 1),
	}
	if b, ok := cfg.Alg.(alg.BatchStepper); ok && alg.IsDeterministic(cfg.Alg) {
		rows := make([][]alg.State, n)
		for v := range rows {
			rows[v] = []alg.State{} // non-nil: every node is a correct receiver
		}
		rt.shared = b
		rt.cleanRound = &alg.Patches{Faulty: make([]bool, n), Values: rows}
		rt.noCoins = make([]*rand.Rand, n)
	}
	return rt, nil
}

// Read serves node's current (round, counter value) from its lock-free
// read cell. It is safe to call from any goroutine at any time,
// including while Run is executing, and never blocks the protocol loop.
func (rt *Runtime) Read(node int) (round uint64, value int, ok bool) {
	if node < 0 || node >= rt.n {
		return 0, 0, false
	}
	return rt.cells[node].Read()
}

// N returns the network size.
func (rt *Runtime) N() int { return rt.n }

// Run drives the network to the configured horizon and returns the
// measured report. On a synchroniser abort (every live node missing a
// barrier, or no live nodes left) the partial report is returned
// alongside the error. Run may be called once per Runtime.
//
// Per seed a run replays the lockstep model in lockstep_test.go byte
// for byte — report, per-round observations, chaos timeline — except
// under stall chaos, whose wall-clock stragglers are nondeterministic.
func (rt *Runtime) Run(ctx context.Context) (*Report, error) {
	if !rt.running.CompareAndSwap(false, true) {
		return nil, errors.New("live: Run already called on this runtime")
	}
	return rt.run(ctx)
}

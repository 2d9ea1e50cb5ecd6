// Package reduction implements the counting → consensus direction of the
// equivalence the paper's introduction describes: "Counting modulo c = 2
// is closely related to binary consensus: given a synchronous counting
// algorithm one can design a binary consensus algorithm and vice versa
// [2, 4, 5]."
//
// Machine turns any self-stabilising c-counter into a self-stabilising
// *repeated consensus* service: time is divided into epochs of
// τ = 3(f+2) rounds scheduled by the counter; at each epoch boundary
// every node adopts a fresh input value, and during the epoch the nodes
// run one full phase king sweep over those inputs. Once the underlying
// counter has stabilised, every subsequent epoch satisfies the consensus
// conditions:
//
//   - Agreement: all correct nodes record the same decision;
//   - Validity: if all correct nodes' inputs are equal, that value is
//     decided.
//
// Before stabilisation no guarantee holds (inputs and decisions may be
// garbage) — exactly the self-stabilising contract: eventually, forever.
package reduction

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// noDecision is reported by Machine.Decision for nodes that have not
// completed an epoch (or whose register was in the reset state at the
// epoch boundary).
const noDecision = -1

// InputFunc supplies node v's input for the given epoch, a value in
// [0, V). Epoch numbers are derived from the counter value and are only
// meaningful after stabilisation. Implementations must be deterministic
// per (node, epoch) so that simulation runs are reproducible.
type InputFunc func(node int, epoch uint64) uint64

// Machine is the repeated-consensus state machine layered over a
// counting algorithm. It implements alg.Algorithm mechanically (states,
// transition, output = latest decision), but note that its output is a
// *decision stream*, not a counter: sim's counting-stabilisation
// detector does not apply to it — inspect decisions per epoch instead.
type Machine struct {
	clock  alg.Algorithm
	f      int
	vals   uint64
	tau    uint64
	inputs InputFunc

	pkCfg phaseking.Config
	cdc   *codec.Codec // fields: clock state, a ∈ [V+1], d ∈ {0,1}, dec ∈ [V+1]
}

var _ alg.Algorithm = (*Machine)(nil)

// New builds a repeated-consensus machine on top of the given counter.
// The counter's modulus must be a multiple of the epoch length
// τ = 3(f+2), where f = clock.F(); vals is the input domain size V ≥ 2.
func New(clock alg.Algorithm, vals int, inputs InputFunc) (*Machine, error) {
	if clock == nil {
		return nil, errors.New("reduction: nil clock")
	}
	if inputs == nil {
		return nil, errors.New("reduction: nil input function")
	}
	if vals < 2 {
		return nil, fmt.Errorf("reduction: input domain %d < 2", vals)
	}
	f := clock.F()
	tau := 3 * uint64(f+2)
	if uint64(clock.C())%tau != 0 {
		return nil, fmt.Errorf("reduction: counter modulus %d is not a multiple of the epoch length 3(f+2) = %d",
			clock.C(), tau)
	}
	n := clock.N()
	if 3*f >= n {
		return nil, fmt.Errorf("reduction: phase king requires f < n/3, got n = %d, f = %d", n, f)
	}
	if n < f+2 {
		return nil, fmt.Errorf("reduction: need at least f+2 = %d king candidates, got n = %d", f+2, n)
	}
	cdc, err := codec.New(clock.StateSpace(), uint64(vals)+1, 2, uint64(vals)+1)
	if err != nil {
		return nil, fmt.Errorf("reduction: state space: %w", err)
	}
	return &Machine{
		clock:  clock,
		f:      f,
		vals:   uint64(vals),
		tau:    tau,
		inputs: inputs,
		pkCfg: phaseking.Config{
			C: uint64(vals),
			Thresholds: phaseking.Thresholds{
				Strong: n - f,
				Weak:   f,
			},
		},
		cdc: cdc,
	}, nil
}

// N implements alg.Algorithm.
func (m *Machine) N() int { return m.clock.N() }

// F implements alg.Algorithm.
func (m *Machine) F() int { return m.f }

// C implements alg.Algorithm: the input/decision domain size.
func (m *Machine) C() int { return int(m.vals) }

// Tau returns the epoch length τ = 3(f+2).
func (m *Machine) Tau() uint64 { return m.tau }

// Clock returns the underlying counting algorithm.
func (m *Machine) Clock() alg.Algorithm { return m.clock }

// StateSpace implements alg.Algorithm.
func (m *Machine) StateSpace() uint64 { return m.cdc.Space() }

// Deterministic reports whether the machine (clock included) is
// deterministic.
func (m *Machine) Deterministic() bool { return alg.IsDeterministic(m.clock) }

// Step implements alg.Algorithm. Each round: (1) the clock steps;
// (2) the clock's *current* output selects the phase king instruction
// set I_R executed on the consensus registers; (3) at the epoch's final
// instruction the decision is recorded and the next epoch's input is
// loaded.
func (m *Machine) Step(v int, recv []alg.State, rng *rand.Rand) alg.State {
	n := m.clock.N()

	// (1) Clock update from the clock components of all states.
	clockRecv := make([]alg.State, n)
	for u := 0; u < n; u++ {
		clockRecv[u] = m.cdc.Field(recv[u], 0)
	}
	newClock := m.clock.Step(v, clockRecv, rng)

	// (2) Phase king over the consensus registers, scheduled by the
	// clock value all correct nodes share after stabilisation.
	clockVal := uint64(m.clock.Output(v, m.cdc.Field(recv[v], 0)))
	r := clockVal % m.tau
	tally := alg.NewTally(n)
	for u := 0; u < n; u++ {
		tally.Add(m.registers(recv[u]).A)
	}
	king := int(phaseking.KingOf(r))
	kingA := m.registers(recv[king]).A
	regs := phaseking.Step(m.pkCfg, m.registers(recv[v]), r, tally, kingA)

	// (3) Epoch boundary: record the decision and load the next input.
	dec := m.cdc.Field(recv[v], 3)
	if r == m.tau-1 {
		// After τ instruction rounds each incrementing once, the agreed
		// register holds (injected value + τ) mod V.
		if regs.A != phaseking.Infinity {
			dec = (regs.A + m.vals - m.tau%m.vals) % m.vals
		} else {
			dec = m.vals // ⊥
		}
		epoch := clockVal / m.tau
		regs = phaseking.Registers{A: m.inputs(v, epoch+1) % m.vals, D: 1}
	}

	aField, dField := regs.Encode(m.vals)
	return m.cdc.MustPack(newClock, aField, dField, dec)
}

// Output implements alg.Algorithm: the most recent decision, or
// noDecision before the first completed epoch (or after a reset-state
// epoch).
func (m *Machine) Output(_ int, s alg.State) int {
	dec := m.cdc.Field(s, 3)
	if dec >= m.vals {
		return noDecision
	}
	return int(dec)
}

// ClockValue decodes the underlying counter value from a packed state.
func (m *Machine) ClockValue(node int, s alg.State) int {
	return m.clock.Output(node, m.cdc.Field(s, 0))
}

// EpochPhase returns R ∈ [τ], the position within the current epoch.
func (m *Machine) EpochPhase(node int, s alg.State) uint64 {
	return uint64(m.ClockValue(node, s)) % m.tau
}

func (m *Machine) registers(s alg.State) phaseking.Registers {
	return phaseking.DecodeRegisters(m.cdc.Field(s, 1), m.cdc.Field(s, 2), m.vals)
}

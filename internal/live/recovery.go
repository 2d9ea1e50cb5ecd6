package live

import (
	"fmt"
	"time"

	"github.com/synchcount/synchcount/internal/sim"
)

// Recovery is the measured response to one fault burst: how many rounds
// after the burst's last actually-injected fault the live network was
// counting correctly again.
type Recovery struct {
	// Burst is the schedule burst index.
	Burst int `json:"burst"`
	// FaultRound is the last round in which the burst actually
	// interfered (dropped/forged a frame, crashed, restarted or stalled
	// a node, suppressed a partition edge) — the f' "actual fault load"
	// reference point, not the scheduled window end.
	FaultRound uint64 `json:"fault_round"`
	// RecoveredAt is the first round of the post-fault streak of
	// correct counting.
	RecoveredAt uint64 `json:"recovered_at"`
	// Latency is the recovery latency in rounds: RecoveredAt -
	// FaultRound - 1, i.e. 0 when the fault never broke counting.
	Latency uint64 `json:"latency"`
	// Confirmed reports that the post-fault streak reached the
	// confirmation window before the run ended.
	Confirmed bool `json:"confirmed"`
}

// tracker measures per-burst recovery on a sim.Detector in its
// re-arming mode — the simulator's confirmation rule, so the two
// runtimes cannot disagree on what "stabilised" means. Every injected
// fault re-arms the detector, and each burst yields one Recovery
// measured from its last actual fault.
type tracker struct {
	det        *sim.Detector
	burst      int
	recoveries []Recovery
}

// newTracker confirms over window rounds (zero takes DefaultWindowFor).
func newTracker(c int, window uint64) *tracker {
	return &tracker{det: sim.NewDetector(c, window)}
}

// fault records that chaos actually interfered in the given round's
// exchange (affecting the states observed from round+1 on). Later
// faults of the same burst slide the reference point forward, so the
// recovery is measured from the burst's last injected fault.
func (t *tracker) fault(round uint64, burst int) {
	t.det.Rearm(round)
	t.burst = burst
}

// observe records one round's outputs: whether every on-time live node
// agreed, and on what value. Rounds with no on-time nodes are observed
// as disagreement.
func (t *tracker) observe(round uint64, agree bool, common int) {
	fault, pending := t.det.Outstanding()
	t.det.Observe(round, agree, common)
	if _, still := t.det.Outstanding(); pending && !still {
		from := t.det.LastConfirmed()
		t.recoveries = append(t.recoveries, Recovery{
			Burst:       t.burst,
			FaultRound:  fault,
			RecoveredAt: from,
			Latency:     from - fault - 1,
			Confirmed:   true,
		})
	}
}

// finish closes the books on a run: an outstanding fault burst that
// never re-confirmed is recorded unconfirmed, with the streak in
// progress (if any) as its tentative recovery point.
func (t *tracker) finish(rep *Report, start time.Time) *Report {
	if fault, pending := t.det.Outstanding(); pending {
		rec := Recovery{Burst: t.burst, FaultRound: fault}
		if from, ok := t.det.CurrentStreakStart(); ok {
			rec.RecoveredAt = from
			rec.Latency = from - fault - 1
		}
		t.recoveries = append(t.recoveries, rec)
	}
	rep.Recoveries = t.recoveries
	rep.Stabilised = t.det.Stabilised()
	rep.FirstStabilised = t.det.Time()
	rep.Violations = t.det.Violations()
	rep.Elapsed = time.Since(start)
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.RoundsPerSec = float64(rep.Rounds) / s
	}
	return rep
}

// Report is the outcome of one live run.
type Report struct {
	// Rounds is the number of synchronised rounds driven; Elapsed the
	// wall-clock spent; RoundsPerSec the sustained throughput.
	Rounds       uint64        `json:"rounds"`
	Elapsed      time.Duration `json:"elapsed"`
	RoundsPerSec float64       `json:"rounds_per_sec"`

	// Stabilised reports that the run confirmed correct counting at
	// least once; FirstStabilised is the first round of that streak.
	Stabilised      bool   `json:"stabilised"`
	FirstStabilised uint64 `json:"first_stabilised"`

	// Recoveries holds one record per injected fault burst.
	Recoveries []Recovery `json:"recoveries"`

	// Violations counts rounds that broke counting with no injected
	// fault outstanding — zero for a correct deterministic stack.
	Violations uint64 `json:"violations"`

	// Synchroniser and transport health counters.
	TimedOutRounds uint64 `json:"timed_out_rounds"` // node-rounds past a barrier deadline
	StaleMessages  uint64 `json:"stale_messages"`   // late/defunct-incarnation messages discarded
	StaleBatches   uint64 `json:"stale_batches"`    // superseded round handoffs skipped by nodes
	ControlDrops   uint64 `json:"control_drops"`    // round handoffs refused by a lagging node
	DecodeErrors   uint64 `json:"decode_errors"`    // frames rejected by the wire validation
	SharedSteps    uint64 `json:"shared_steps"`     // node-rounds that took the round's shared step

	// Chaos accounting (what was actually injected).
	Crashes    uint64 `json:"crashes"`
	Restarts   uint64 `json:"restarts"`
	Stalls     uint64 `json:"stalls"`
	Dropped    uint64 `json:"dropped"`
	Corrupted  uint64 `json:"corrupted"`
	Duplicated uint64 `json:"duplicated"`
	Delayed    uint64 `json:"delayed"`
	Suppressed uint64 `json:"suppressed"` // partition-cut frames

	// BudgetExhausted reports the run stopped at the wall budget before
	// completing its scripted horizon.
	BudgetExhausted bool `json:"budget_exhausted"`
}

// CheckRecovery verifies the soak contract: the run stabilised, every
// injected burst re-confirmed correct counting, no recovery took longer
// than the stack's declared stabilisation bound, and no round broke
// counting without an injected fault to blame.
func (r *Report) CheckRecovery(bound uint64) error {
	if !r.Stabilised {
		return fmt.Errorf("live: the run never stabilised in %d rounds", r.Rounds)
	}
	for _, rec := range r.Recoveries {
		if !rec.Confirmed {
			return fmt.Errorf("live: burst %d (last fault at round %d) never re-confirmed stable counting before the run ended at round %d", rec.Burst, rec.FaultRound, r.Rounds)
		}
		if rec.Latency > bound {
			return fmt.Errorf("live: burst %d recovered %d rounds after its last fault (round %d), above the declared stabilisation bound of %d rounds", rec.Burst, rec.Latency, rec.FaultRound, bound)
		}
	}
	if r.Violations > 0 {
		return fmt.Errorf("live: %d rounds broke counting with no injected fault outstanding", r.Violations)
	}
	return nil
}

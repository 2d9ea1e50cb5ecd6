package sim

// Detector performs online stabilisation detection over a stream of
// per-round observations: it finds the earliest round t such that from t
// onward all correct nodes output a common value that increments by one
// modulo c each round, and (after a first confirmation) counts any later
// violations — the quantity that bounds the failure probability of the
// probabilistic counters of Section 5.
//
// Rearm switches on the re-arming mode the live runtime measures
// recovery with: each injected fault demands a fresh confirmation window
// that starts after it, and the rounds it breaks are blamed on the fault
// instead of being counted as violations.
//
// The zero value is not usable; construct with NewDetector.
type Detector struct {
	c      int
	window uint64

	haveStreak  bool
	streakStart uint64
	prevOut     int

	confirmed     bool
	confirmedTime uint64
	lastConfirmed uint64
	violations    uint64

	// Outstanding Rearm fault awaiting re-confirmation.
	rearmed   bool
	lastFault uint64
}

// NewDetector returns a detector for counting modulo c that requires
// window consecutive correct rounds before declaring stabilisation.
func NewDetector(c int, window uint64) *Detector {
	if window == 0 {
		window = DefaultWindowFor(c)
	}
	return &Detector{c: c, window: window}
}

// Observe records the outputs of one round: whether all correct nodes
// agreed, and on which value. It returns true once stabilisation has
// been confirmed (the streak has reached the window length).
func (d *Detector) Observe(round uint64, agree bool, common int) bool {
	ok := false
	switch {
	case !agree:
		d.haveStreak = false
	case !d.haveStreak:
		d.haveStreak = true
		d.streakStart = round
		d.prevOut = common
		ok = true
	case common != (d.prevOut+1)%d.c:
		// The counter jumped or stalled: counting broke *this* round
		// (a violation if already confirmed), though the agreed value
		// can seed a fresh streak.
		d.streakStart = round
		d.prevOut = common
		ok = false
	default:
		d.prevOut = common
		ok = true
	}
	if d.confirmed && !ok && !d.rearmed {
		d.violations++
	}
	if d.haveStreak && (!d.confirmed || d.rearmed) {
		if from := d.from(); round >= from && round-from+1 >= d.window {
			if !d.confirmed {
				d.confirmed = true
				d.confirmedTime = from
			}
			d.lastConfirmed = from
			d.rearmed = false
		}
	}
	return d.confirmed
}

// from is the first round the streak in progress counts from: its
// start, moved past an outstanding Rearm fault.
func (d *Detector) from() uint64 {
	if d.rearmed && d.streakStart <= d.lastFault {
		return d.lastFault + 1
	}
	return d.streakStart
}

// Rearm records that a fault interfered with the given round's
// exchange: counting must be re-confirmed by a full window of correct
// rounds starting after it, and until then rounds that break counting
// are blamed on the fault rather than counted as violations. A later
// Rearm before re-confirmation slides the reference point forward.
func (d *Detector) Rearm(round uint64) {
	d.rearmed = true
	d.lastFault = round
}

// Outstanding returns the round of the last Rearm fault and whether it
// still awaits re-confirmation.
func (d *Detector) Outstanding() (uint64, bool) { return d.lastFault, d.rearmed }

// Stabilised reports whether a full window has been confirmed.
func (d *Detector) Stabilised() bool { return d.confirmed }

// Time returns the first round of the confirmed streak; valid when
// Stabilised.
func (d *Detector) Time() uint64 { return d.confirmedTime }

// LastConfirmed returns the first round of the most recently confirmed
// window: Time, or the streak that re-confirmed the last Rearm fault.
func (d *Detector) LastConfirmed() uint64 { return d.lastConfirmed }

// CurrentStreakStart returns the start of the streak in progress — moved
// past an outstanding Rearm fault — and whether one exists (used by
// callers that run to a fixed horizon and want to re-confirm at the end).
func (d *Detector) CurrentStreakStart() (uint64, bool) { return d.from(), d.haveStreak }

// Violations counts rounds that broke agreement or the increment rule
// *after* the first confirmation — the empirical failure count for
// probabilistic counters.
func (d *Detector) Violations() uint64 { return d.violations }

// Window returns the configured confirmation window.
func (d *Detector) Window() uint64 { return d.window }

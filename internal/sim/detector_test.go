package sim

import "testing"

func TestDetectorImmediateStabilisation(t *testing.T) {
	d := NewDetector(3, 5)
	for r := uint64(0); r < 10; r++ {
		confirmed := d.Observe(r, true, int(r%3))
		if r < 4 && confirmed {
			t.Fatalf("round %d: confirmed before the window elapsed", r)
		}
		if r >= 4 && !confirmed {
			t.Fatalf("round %d: not confirmed after the window", r)
		}
	}
	if d.Time() != 0 {
		t.Fatalf("Time = %d, want 0", d.Time())
	}
	if d.Violations() != 0 {
		t.Fatalf("Violations = %d, want 0", d.Violations())
	}
}

func TestDetectorRestartsOnDisagreement(t *testing.T) {
	d := NewDetector(4, 3)
	d.Observe(0, true, 0)
	d.Observe(1, false, 0) // disagreement breaks the streak
	d.Observe(2, true, 2)
	d.Observe(3, true, 3)
	if d.Observe(4, true, 0) != true {
		t.Fatal("streak 2..4 should confirm with window 3")
	}
	if d.Time() != 2 {
		t.Fatalf("Time = %d, want 2", d.Time())
	}
}

func TestDetectorRestartsOnSkippedIncrement(t *testing.T) {
	d := NewDetector(10, 3)
	d.Observe(0, true, 5)
	d.Observe(1, true, 7) // skip: streak restarts at round 1
	d.Observe(2, true, 8)
	confirmed := d.Observe(3, true, 9)
	if !confirmed {
		t.Fatal("rounds 1..3 count correctly and should confirm")
	}
	if d.Time() != 1 {
		t.Fatalf("Time = %d, want 1", d.Time())
	}
}

func TestDetectorWraparound(t *testing.T) {
	d := NewDetector(3, 4)
	vals := []int{1, 2, 0, 1, 2, 0}
	for r, v := range vals {
		d.Observe(uint64(r), true, v)
	}
	if !d.Stabilised() || d.Time() != 0 {
		t.Fatalf("modular wraparound broke detection: stabilised=%v t=%d", d.Stabilised(), d.Time())
	}
}

func TestDetectorViolationsAfterConfirmation(t *testing.T) {
	d := NewDetector(4, 2)
	d.Observe(0, true, 0)
	d.Observe(1, true, 1) // confirmed here
	if !d.Stabilised() {
		t.Fatal("should be confirmed")
	}
	d.Observe(2, false, 0) // violation 1
	d.Observe(3, true, 1)  // new streak, no violation
	d.Observe(4, true, 3)  // skipped increment: violation 2
	d.Observe(5, true, 0)  // counting again
	if got := d.Violations(); got != 2 {
		t.Fatalf("Violations = %d, want 2", got)
	}
	// Confirmation and time are latched to the first streak.
	if d.Time() != 0 {
		t.Fatalf("Time = %d, want 0 (latched)", d.Time())
	}
}

func TestDetectorDefaultWindow(t *testing.T) {
	d := NewDetector(5, 0)
	if d.Window() != DefaultWindowFor(5) {
		t.Fatalf("Window = %d, want default %d", d.Window(), DefaultWindowFor(5))
	}
}

func TestDetectorCurrentStreak(t *testing.T) {
	d := NewDetector(4, 100)
	if _, ok := d.CurrentStreakStart(); ok {
		t.Fatal("no streak expected before observations")
	}
	d.Observe(0, false, 0)
	d.Observe(1, true, 2)
	start, ok := d.CurrentStreakStart()
	if !ok || start != 1 {
		t.Fatalf("streak start = %d,%v want 1,true", start, ok)
	}
}

// The re-arming mode: a fault demands a fresh window that starts after
// it, the rounds it breaks are not violations, and a streak already in
// progress only counts from the round after the fault.
func TestDetectorRearm(t *testing.T) {
	d := NewDetector(4, 3)
	for r := uint64(0); r < 3; r++ {
		d.Observe(r, true, int(r%4))
	}
	if !d.Stabilised() || d.Time() != 0 || d.LastConfirmed() != 0 {
		t.Fatalf("first window: stabilised=%v time=%d last=%d", d.Stabilised(), d.Time(), d.LastConfirmed())
	}
	d.Rearm(3)
	if fault, ok := d.Outstanding(); !ok || fault != 3 {
		t.Fatalf("Outstanding = %d,%v want 3,true", fault, ok)
	}
	d.Observe(3, true, 3) // the streak survives the fault but restarts at 4
	d.Observe(4, false, 0)
	d.Observe(5, true, 2)
	d.Rearm(5) // a later fault of the burst slides the reference point
	d.Observe(6, true, 3)
	if start, ok := d.CurrentStreakStart(); !ok || start != 6 {
		t.Fatalf("streak start = %d,%v want 6 (moved past the fault)", start, ok)
	}
	d.Observe(7, true, 0)
	if _, ok := d.Outstanding(); !ok {
		t.Fatal("re-confirmed before a full window after the last fault")
	}
	d.Observe(8, true, 1)
	if _, ok := d.Outstanding(); ok {
		t.Fatal("rounds 6..8 should re-confirm with window 3")
	}
	if d.LastConfirmed() != 6 || d.Time() != 0 {
		t.Fatalf("LastConfirmed = %d, Time = %d; want 6 and the latched 0", d.LastConfirmed(), d.Time())
	}
	if d.Violations() != 0 {
		t.Fatalf("%d violations blamed on rounds an outstanding fault broke", d.Violations())
	}
	d.Observe(9, false, 0) // no fault outstanding: a violation again
	if d.Violations() != 1 {
		t.Fatalf("Violations = %d, want 1", d.Violations())
	}
}

// A fault before the first confirmation delays it: the first window
// must start after the fault.
func TestDetectorRearmBeforeFirstConfirmation(t *testing.T) {
	d := NewDetector(4, 3)
	d.Observe(0, true, 0)
	d.Rearm(1)
	for r := uint64(1); r < 4; r++ {
		d.Observe(r, true, int(r%4))
	}
	if d.Stabilised() {
		t.Fatal("confirmed on a window that straddles the fault")
	}
	d.Observe(4, true, 0)
	if !d.Stabilised() || d.Time() != 2 {
		t.Fatalf("stabilised=%v time=%d, want the window 2..4", d.Stabilised(), d.Time())
	}
}

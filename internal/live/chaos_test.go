package live

import (
	"strings"
	"testing"
	"time"
)

func fullChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:     seed,
		N:        8,
		Kinds:    []string{"crash", "loss", "corrupt", "dup", "delay", "partition", "stall"},
		Warmup:   50,
		Bursts:   3,
		BurstLen: 6,
		Gap:      40,
		StallDur: 50 * time.Millisecond,
	}
}

// The replayability contract: the same (seed, config) must generate a
// byte-identical timeline every time — this is what lets two soak runs
// be compared line by line.
func TestScheduleDeterministic(t *testing.T) {
	a, err := NewSchedule(fullChaosConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSchedule(fullChaosConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Timeline() != b.Timeline() {
		t.Fatalf("same seed produced different timelines:\n%s\nvs\n%s", a.Timeline(), b.Timeline())
	}
	c, err := NewSchedule(fullChaosConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Timeline() == c.Timeline() {
		t.Fatal("different seeds produced the identical timeline")
	}
}

func TestScheduleShape(t *testing.T) {
	s, err := NewSchedule(fullChaosConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(50 + 3*(6+40)); s.Rounds != want {
		t.Fatalf("horizon %d, want %d", s.Rounds, want)
	}
	// Defaults kicked in for the selected kinds.
	var linkWin *Window
	for i := range s.Windows {
		if s.Windows[i].Group == nil {
			linkWin = &s.Windows[i]
			break
		}
	}
	if linkWin == nil {
		t.Fatal("no link-chaos window generated")
	}
	if linkWin.Drop != 0.15 || linkWin.Corrupt != 0.05 || linkWin.Dup != 0.10 || linkWin.Delay != 0.10 || linkWin.DelayBy != 2 {
		t.Fatalf("default rates not applied: %+v", *linkWin)
	}
	// Every burst fires inside its window and nothing lands in warmup.
	for _, ev := range s.Events {
		if ev.Round < 50 {
			t.Fatalf("%s event at round %d lands in the warmup", ev.Kind, ev.Round)
		}
	}
	if len(s.eventsAt(50)) == 0 {
		t.Fatal("no events at the first burst start")
	}
	if got := s.windowsAt(50, nil); len(got) == 0 {
		t.Fatal("no chaos windows cover the first burst start")
	}
	if got := s.windowsAt(49, nil); len(got) != 0 {
		t.Fatalf("%d chaos windows cover warmup round 49", len(got))
	}
}

func TestNewScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ChaosConfig)
		want string
	}{
		{"tiny network", func(c *ChaosConfig) { c.N = 1 }, "n >= 2"},
		{"negative bursts", func(c *ChaosConfig) { c.Bursts = -1 }, "negative"},
		{"zero burst length", func(c *ChaosConfig) { c.BurstLen = 0 }, "burst length"},
		{"zero gap", func(c *ChaosConfig) { c.Gap = 0 }, "gap"},
		{"unknown kind", func(c *ChaosConfig) { c.Kinds = []string{"gamma-rays"} }, "unknown chaos kind"},
		{"rate out of range", func(c *ChaosConfig) { c.LossRate = 1.5 }, "outside [0, 1)"},
		{"negative crashes", func(c *ChaosConfig) { c.Crashes = -2 }, "negative"},
		{"total crash", func(c *ChaosConfig) { c.Crashes = 8 }, "kill all"},
		{"stall without duration", func(c *ChaosConfig) { c.StallDur = 0 }, "straggler duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fullChaosConfig(1)
			tc.mut(&cfg)
			_, err := NewSchedule(cfg)
			if err == nil {
				t.Fatal("config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestScheduleValidateHandBuilt(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string
	}{
		{"node out of range", Schedule{N: 4, Events: []Event{{Round: 1, Kind: eventCrash, Node: 9}}}, "out of range"},
		{"stall without duration", Schedule{N: 4, Events: []Event{{Round: 1, Kind: eventStall, Node: 0}}}, "no duration"},
		{"empty window", Schedule{N: 4, Windows: []Window{{From: 5, To: 5}}}, "empty"},
		{"wrong cut size", Schedule{N: 4, Windows: []Window{{From: 1, To: 2, Group: []int{0, 1}}}}, "cuts 2 nodes"},
		{"delay without hold", Schedule{N: 4, Windows: []Window{{From: 1, To: 2, Delay: 0.5}}}, "0 rounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if err == nil {
				t.Fatal("schedule accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestChaosHashDeterministicAndBounded(t *testing.T) {
	for round := uint64(0); round < 100; round++ {
		h := chaosHash(9, round, 3, 5, saltDrop)
		if h < 0 || h >= 1 {
			t.Fatalf("chaosHash = %g outside [0, 1)", h)
		}
		if h != chaosHash(9, round, 3, 5, saltDrop) {
			t.Fatal("chaosHash is not a pure function")
		}
	}
	// The salts must decorrelate the decision streams on one link.
	same := 0
	for round := uint64(0); round < 1000; round++ {
		a := chaosHash(9, round, 3, 5, saltDrop) < 0.5
		b := chaosHash(9, round, 3, 5, saltDup) < 0.5
		if a == b {
			same++
		}
	}
	if same < 400 || same > 600 {
		t.Fatalf("drop and dup decisions agree %d/1000 times — salts are correlated", same)
	}
}

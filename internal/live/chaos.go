package live

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// EventKind is a node-level chaos action.
type EventKind uint8

const (
	// eventCrash kills the node's goroutine at the start of the round;
	// until it is restarted peers keep stepping on its last broadcast
	// state (graceful degradation, never a stall).
	eventCrash EventKind = iota
	// eventRestart revives a crashed node with a fresh, arbitrarily
	// seeded state and an arbitrarily seeded view of its peers — the
	// transient-fault injection the self-stabilisation bound covers.
	eventRestart
	// eventStall delays the node's round work by a wall-clock duration,
	// making it a straggler: the synchroniser counts it faulty for every
	// round whose deadline it misses, and it rejoins at the newest round
	// once it wakes.
	eventStall
)

func (k EventKind) String() string {
	switch k {
	case eventCrash:
		return "crash"
	case eventRestart:
		return "restart"
	case eventStall:
		return "stall"
	}
	return fmt.Sprintf("event(%d)", k)
}

// Event is one scheduled node-level fault.
type Event struct {
	// Round is when the event fires; Burst groups the events of one
	// fault burst for per-burst recovery accounting.
	Round uint64
	Burst int
	Kind  EventKind
	Node  int
	// Stall is the straggler delay (eventStall only).
	Stall time.Duration
}

// Window is a round interval [From, To) of link-level chaos. Partition
// windows suppress frames crossing the group cut; loss windows decide
// drop/corrupt/duplicate/delay per (round, sender, receiver) by a
// seeded hash, so the same schedule replays the identical per-link
// fault pattern on every run. Windows covering a round act on each
// frame in schedule order, and a frame one window suppresses or drops
// is gone: later windows neither touch nor count it, so nothing
// crosses a cut while it stands.
type Window struct {
	From, To uint64
	Burst    int

	// Group, when non-nil, partitions the network: Group[i] is node i's
	// side of the cut and frames crossing sides are suppressed.
	Group []int

	// Per-link probabilities in [0, 1), evaluated by a pure hash of
	// (schedule seed, round, sender, receiver).
	Drop, Corrupt, Dup, Delay float64
	// DelayBy is how many rounds a delayed frame is held before
	// delivery (it arrives stale, like a straggler's broadcast).
	DelayBy uint64
}

// Schedule is a deterministic chaos timeline: the same schedule drives
// byte-identical fault injection on every run, which is what makes live
// soak results reproducible enough to compare across builds.
type Schedule struct {
	// Seed drives the per-link hash decisions and records the
	// generator seed for provenance.
	Seed int64
	// N is the network size the schedule was built for.
	N int
	// Rounds is the scripted horizon: every burst plus its recovery gap
	// fits inside it.
	Rounds uint64
	// Bursts is the number of fault bursts.
	Bursts int
	// Events are the node-level faults, sorted by round.
	Events []Event
	// Windows are the link-level fault intervals, sorted by From.
	Windows []Window
}

// ChaosConfig parameterises the burst-schedule generator.
type ChaosConfig struct {
	// Seed makes the schedule: the same (Seed, config) always generates
	// the identical timeline.
	Seed int64
	// N is the network size.
	N int
	// Kinds selects the fault families injected each burst: any of
	// "crash" (crash + arbitrary-state restart), "loss" (per-link
	// drops), "corrupt" (bit-flipped and forged frames), "dup"
	// (duplicate delivery), "delay" (frames held for DelayBy rounds),
	// "partition" (a group cut for the burst), "stall" (wall-clock
	// stragglers).
	Kinds []string
	// Warmup is the fault-free prefix, letting the run stabilise once
	// before the first burst.
	Warmup uint64
	// Bursts, BurstLen and Gap shape the timeline: Bursts bursts of
	// BurstLen rounds, each followed by a fault-free Gap for recovery
	// (the gap must exceed the stack's stabilisation bound plus the
	// confirmation window for the soak verdict to be meaningful).
	Bursts   int
	BurstLen uint64
	Gap      uint64
	// Crashes is the number of crash/restart pairs per burst (0 with
	// the "crash" kind selected defaults to 1).
	Crashes int
	// Link-chaos rates for the "loss"/"corrupt"/"dup"/"delay" kinds;
	// zero rates with the kind selected take the listed defaults.
	LossRate    float64 // default 0.15
	CorruptRate float64 // default 0.05
	DupRate     float64 // default 0.10
	DelayRate   float64 // default 0.10
	DelayBy     uint64  // default 2
	// StallDur is the straggler sleep for the "stall" kind; it must be
	// comfortably above the runtime's round timeout to deterministically
	// miss the barrier (default 0 — the kind then requires an explicit
	// duration).
	StallDur time.Duration
}

// chaosKinds lists the valid Kinds tokens.
var chaosKinds = []string{"crash", "loss", "corrupt", "dup", "delay", "partition", "stall"}

// NewSchedule generates the deterministic burst timeline for the
// config. The same config (seed included) always yields a byte-identical
// timeline — see (*Schedule).WriteTimeline.
func NewSchedule(cfg ChaosConfig) (*Schedule, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("live: chaos schedule needs n >= 2 nodes, got %d", cfg.N)
	}
	if cfg.Bursts < 0 {
		return nil, fmt.Errorf("live: %d bursts is negative", cfg.Bursts)
	}
	if cfg.Bursts > 0 && cfg.BurstLen < 1 {
		return nil, fmt.Errorf("live: burst length must be at least 1 round, got %d", cfg.BurstLen)
	}
	if cfg.Bursts > 0 && cfg.Gap < 1 {
		return nil, fmt.Errorf("live: recovery gap must be at least 1 round, got %d", cfg.Gap)
	}
	want := map[string]bool{}
	for _, k := range cfg.Kinds {
		k = strings.TrimSpace(k)
		ok := false
		for _, v := range chaosKinds {
			if k == v {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("live: unknown chaos kind %q (have %s)", k, strings.Join(chaosKinds, ", "))
		}
		want[k] = true
	}
	for rate, name := range map[*float64]string{
		&cfg.LossRate: "loss", &cfg.CorruptRate: "corrupt", &cfg.DupRate: "dup", &cfg.DelayRate: "delay",
	} {
		if *rate < 0 || *rate >= 1 {
			return nil, fmt.Errorf("live: %s rate %g outside [0, 1)", name, *rate)
		}
	}
	crashes := cfg.Crashes
	if crashes < 0 {
		return nil, fmt.Errorf("live: %d crashes per burst is negative", crashes)
	}
	if want["crash"] && crashes == 0 {
		crashes = 1
	}
	if crashes >= cfg.N {
		return nil, fmt.Errorf("live: %d crashes per burst would kill all %d nodes", crashes, cfg.N)
	}
	if want["stall"] && cfg.StallDur <= 0 {
		return nil, fmt.Errorf("live: the stall kind needs a positive straggler duration")
	}
	if want["delay"] && cfg.DelayBy == 0 {
		cfg.DelayBy = 2
	}
	defRate := func(r *float64, d float64, on bool) {
		if on && *r == 0 {
			*r = d
		}
	}
	defRate(&cfg.LossRate, 0.15, want["loss"])
	defRate(&cfg.CorruptRate, 0.05, want["corrupt"])
	defRate(&cfg.DupRate, 0.10, want["dup"])
	defRate(&cfg.DelayRate, 0.10, want["delay"])

	s := &Schedule{
		Seed:   cfg.Seed,
		N:      cfg.N,
		Bursts: cfg.Bursts,
		Rounds: cfg.Warmup + uint64(cfg.Bursts)*(cfg.BurstLen+cfg.Gap),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for b := 0; b < cfg.Bursts; b++ {
		start := cfg.Warmup + uint64(b)*(cfg.BurstLen+cfg.Gap)
		end := start + cfg.BurstLen

		if want["crash"] {
			// Distinct victims per burst; each crashes at the burst start
			// and revives with an arbitrary state before the burst ends,
			// so the restart is the burst's final transient fault.
			victims := rng.Perm(cfg.N)[:crashes]
			sort.Ints(victims)
			for i, v := range victims {
				crashAt := start + uint64(i)%cfg.BurstLen
				restartAt := end - 1
				if restartAt < crashAt {
					restartAt = crashAt
				}
				s.Events = append(s.Events,
					Event{Round: crashAt, Burst: b, Kind: eventCrash, Node: v},
					Event{Round: restartAt, Burst: b, Kind: eventRestart, Node: v},
				)
			}
		}
		if want["stall"] {
			s.Events = append(s.Events, Event{
				Round: start, Burst: b, Kind: eventStall,
				Node: rng.Intn(cfg.N), Stall: cfg.StallDur,
			})
		}
		if want["partition"] {
			// A random nontrivial cut for the burst window.
			group := make([]int, cfg.N)
			perm := rng.Perm(cfg.N)
			side := 1 + rng.Intn(cfg.N-1)
			for _, i := range perm[:side] {
				group[i] = 1
			}
			s.Windows = append(s.Windows, Window{From: start, To: end, Burst: b, Group: group})
		}
		if want["loss"] || want["corrupt"] || want["dup"] || want["delay"] {
			w := Window{From: start, To: end, Burst: b, DelayBy: cfg.DelayBy}
			if want["loss"] {
				w.Drop = cfg.LossRate
			}
			if want["corrupt"] {
				w.Corrupt = cfg.CorruptRate
			}
			if want["dup"] {
				w.Dup = cfg.DupRate
			}
			if want["delay"] {
				w.Delay = cfg.DelayRate
			}
			s.Windows = append(s.Windows, w)
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Round < s.Events[j].Round })
	sort.SliceStable(s.Windows, func(i, j int) bool { return s.Windows[i].From < s.Windows[j].From })
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks a schedule (generated or hand-built) for coherence.
func (s *Schedule) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("live: schedule for n = %d nodes (need >= 2)", s.N)
	}
	for _, ev := range s.Events {
		if ev.Node < 0 || ev.Node >= s.N {
			return fmt.Errorf("live: %s event at round %d targets node %d out of range [0,%d)", ev.Kind, ev.Round, ev.Node, s.N)
		}
		if ev.Kind == eventStall && ev.Stall <= 0 {
			return fmt.Errorf("live: stall event at round %d has no duration", ev.Round)
		}
	}
	for _, w := range s.Windows {
		if w.To <= w.From {
			return fmt.Errorf("live: chaos window [%d,%d) is empty", w.From, w.To)
		}
		if w.Group != nil && len(w.Group) != s.N {
			return fmt.Errorf("live: partition window [%d,%d) cuts %d nodes, schedule has %d", w.From, w.To, len(w.Group), s.N)
		}
		for _, r := range []float64{w.Drop, w.Corrupt, w.Dup, w.Delay} {
			if r < 0 || r >= 1 {
				return fmt.Errorf("live: chaos window [%d,%d) rate %g outside [0, 1)", w.From, w.To, r)
			}
		}
		if w.Delay > 0 && w.DelayBy == 0 {
			return fmt.Errorf("live: chaos window [%d,%d) delays frames by 0 rounds", w.From, w.To)
		}
	}
	return nil
}

// WriteTimeline renders the schedule canonically: the same schedule
// always produces byte-identical output, which is what the determinism
// suite (and a human diffing two soak runs) compares.
func (s *Schedule) WriteTimeline(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "chaos seed=%d n=%d rounds=%d bursts=%d\n", s.Seed, s.N, s.Rounds, s.Bursts); err != nil {
		return err
	}
	for _, ev := range s.Events {
		var err error
		if ev.Kind == eventStall {
			_, err = fmt.Fprintf(w, "event round=%d burst=%d %s node=%d dur=%s\n", ev.Round, ev.Burst, ev.Kind, ev.Node, ev.Stall)
		} else {
			_, err = fmt.Fprintf(w, "event round=%d burst=%d %s node=%d\n", ev.Round, ev.Burst, ev.Kind, ev.Node)
		}
		if err != nil {
			return err
		}
	}
	for _, win := range s.Windows {
		if win.Group != nil {
			if _, err := fmt.Fprintf(w, "window rounds=[%d,%d) burst=%d partition cut=%v\n", win.From, win.To, win.Burst, win.Group); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "window rounds=[%d,%d) burst=%d drop=%.3f corrupt=%.3f dup=%.3f delay=%.3f delay-by=%d\n",
			win.From, win.To, win.Burst, win.Drop, win.Corrupt, win.Dup, win.Delay, win.DelayBy); err != nil {
			return err
		}
	}
	return nil
}

// maxDelayBy returns the deepest delay any window in the schedule can
// impose on a frame. The engine sizes its arena ring by it: an epoch's
// bytes may be referenced until every round a held frame could still
// land in has completed.
func (s *Schedule) maxDelayBy() uint64 {
	var d uint64
	for _, w := range s.Windows {
		if w.Delay > 0 && w.DelayBy > d {
			d = w.DelayBy
		}
	}
	return d
}

// eventsAt returns the events firing at the given round. Events are
// sorted by round, so a binary search bounds the scan.
func (s *Schedule) eventsAt(round uint64) []Event {
	lo := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].Round >= round })
	hi := lo
	for hi < len(s.Events) && s.Events[hi].Round == round {
		hi++
	}
	return s.Events[lo:hi]
}

// windowsAt appends the windows covering the given round to dst.
func (s *Schedule) windowsAt(round uint64, dst []*Window) []*Window {
	for i := range s.Windows {
		if s.Windows[i].From <= round && round < s.Windows[i].To {
			dst = append(dst, &s.Windows[i])
		}
	}
	return dst
}

// Hash salts separating the per-link decision streams: one link must be
// able to (say) duplicate without also dropping half the time.
const (
	saltDrop = iota + 1
	saltCorrupt
	saltDup
	saltDelay
	saltMask
)

// chaosHash maps (seed, round, sender, receiver, salt) to [0, 1) via
// SplitMix64 — a pure function, so every run of a schedule makes the
// identical per-link decisions regardless of goroutine interleaving.
func chaosHash(seed int64, round uint64, from, to, salt int) float64 {
	z := uint64(seed) ^ round*0x9e3779b97f4a7c15 ^ uint64(from)<<40 ^ uint64(to)<<20 ^ uint64(salt)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// chaosWord derives a 64-bit corruption word for a link-round.
func chaosWord(seed int64, round uint64, from, to int) uint64 {
	z := uint64(seed) ^ round*0xd1342543de82ef95 ^ uint64(from)<<32 ^ uint64(to) ^ uint64(saltMask)<<56
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// corruptFrame damages a full frame in place, as the corruption word
// decides; callers corrupt a private copy, since the original is shared
// with other recipients. Half the decisions forge an authentic-looking
// frame carrying an arbitrary in-space state — the Byzantine-value
// injection the counting stacks are built to survive — and the other
// half flip raw bytes, producing a frame the receiver's checksum/decode
// hardening must reject as loss without panicking.
func corruptFrame(fr []byte, word, space uint64) {
	if word&1 == 0 {
		// Forge: rewrite the state word with an arbitrary in-space value
		// and recompute the checksum so the frame authenticates.
		resealFrame(fr, word%space)
		return
	}
	// Bit-flip: damage one byte anywhere in the frame; the CRC (or the
	// decoder's range checks) catches it and the receiver treats the
	// frame as lost.
	flip := byte(word >> 32)
	if flip == 0 {
		flip = 0x01
	}
	fr[int(word>>8)%len(fr)] ^= flip
}

package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// streamCampaign is a cheap seed-derived grid for streaming tests.
func streamCampaign(workers, trials int) Campaign {
	return Campaign{
		Name:    "stream",
		Seed:    11,
		Workers: workers,
		Scenarios: []Scenario{{
			Name:   "only",
			Trials: trials,
			Run: func(_ context.Context, _ int, seed int64) (Observation, error) {
				return Observation{
					Stabilised:        seed%2 == 0,
					StabilisationTime: uint64(seed % 512),
					RoundsRun:         uint64(seed%512) + 1,
				}, nil
			},
		}},
	}
}

// TestSinkEmissionIsSerialisedAndOrdered is the race-focused sink test:
// with many workers racing, the engine must deliver records to sinks
// from a single goroutine in deterministic order — so a sink needs no
// locking. The unguarded slice append here is the assertion: `go test
// -race` fails this test if Emit ever runs concurrently.
func TestSinkEmissionIsSerialisedAndOrdered(t *testing.T) {
	const trials = 300
	var got []int // deliberately unguarded: emission must be single-threaded
	depth := 0
	sink := SinkFunc(func(rec TrialRecord) error {
		depth++ // -race flags concurrent Emit via this unguarded counter
		defer func() { depth-- }()
		got = append(got, rec.Trial.Trial)
		return nil
	})
	if err := streamCampaign(8, trials).Stream(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != trials {
		t.Fatalf("emitted %d records, want %d", len(got), trials)
	}
	for i, tr := range got {
		if tr != i {
			t.Fatalf("record %d is trial %d: emission left deterministic order", i, tr)
		}
	}
}

// TestMultipleSinksSeeSameStream checks fan-out: every sink receives
// every record, in the same order.
func TestMultipleSinksSeeSameStream(t *testing.T) {
	var a, b []TrialRecord
	err := streamCampaign(4, 50).Stream(context.Background(),
		SinkFunc(func(rec TrialRecord) error { a = append(a, rec); return nil }),
		SinkFunc(func(rec TrialRecord) error { b = append(b, rec); return nil }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("sinks saw %d and %d records, want 50 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sinks diverge at record %d", i)
		}
	}
}

// TestSinkErrorAbortsCampaign checks a failing sink cancels the run
// and surfaces its error.
func TestSinkErrorAbortsCampaign(t *testing.T) {
	boom := errors.New("disk full")
	var emitted atomic.Int32
	sink := SinkFunc(func(rec TrialRecord) error {
		if emitted.Add(1) == 5 {
			return boom
		}
		return nil
	})
	err := streamCampaign(4, 10_000).Stream(context.Background(), sink)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "sink") {
		t.Fatalf("error %q does not identify the sink", err)
	}
	if n := emitted.Load(); n >= 10_000 {
		t.Fatalf("all %d records were emitted despite the sink failing", n)
	}
}

// TestStreamBacklogIsBounded pins the constant-memory property
// directly: when the very first trial stalls, no record can be emitted,
// so the reorder window must throttle the whole pool — the engine may
// start at most reorderWindow(workers) trials, no matter how many the
// campaign holds.
func TestStreamBacklogIsBounded(t *testing.T) {
	const trials = 100_000
	workers := 4
	release := make(chan struct{})
	var started atomic.Int32
	c := Campaign{
		Name:    "backlog",
		Seed:    1,
		Workers: workers,
		Scenarios: []Scenario{{
			Name:   "stall",
			Trials: trials,
			Run: func(ctx context.Context, trial int, _ int64) (Observation, error) {
				started.Add(1)
				if trial == 0 {
					select {
					case <-release:
					case <-ctx.Done():
						return Observation{}, ctx.Err()
					}
				}
				return Observation{}, nil
			},
		}},
	}
	done := make(chan error, 1)
	go func() { done <- c.Stream(context.Background(), SinkFunc(func(TrialRecord) error { return nil })) }()

	// Wait until the started counter stops moving: the pool has hit the
	// reorder window and stalled behind trial 0.
	limit := int32(reorderWindow(workers))
	deadline := time.Now().Add(10 * time.Second)
	var prev int32 = -1
	for {
		cur := started.Load()
		if cur == prev {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never quiesced (started=%d)", cur)
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
	if n := started.Load(); n > limit {
		t.Fatalf("%d trials started while trial 0 stalled; reorder window is %d — backlog is unbounded", n, limit)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := started.Load(); n != trials {
		t.Fatalf("campaign finished after %d of %d trials", n, trials)
	}
}

// TestStreamingAllocationsFlat asserts the allocation benchmark's
// claim in CI: per-trial allocations of a streaming NDJSON campaign
// must not grow with the trial count (no per-campaign buffering on the
// streaming path).
func TestStreamingAllocationsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	perTrial := func(trials int) float64 {
		c := streamCampaign(4, trials)
		sink := NDJSONSink(io.Discard)
		allocs := testing.AllocsPerRun(3, func() {
			if err := c.Stream(context.Background(), sink); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(trials)
	}
	small := perTrial(1_000)
	large := perTrial(10_000)
	if large > small*1.5+1 {
		t.Fatalf("allocations grew with trial count: %.2f allocs/trial at 1k, %.2f at 10k", small, large)
	}
}

// BenchmarkCampaign_Streaming measures the streaming path as trial
// count grows 10x: with a non-buffering NDJSON sink, allocations per
// trial must stay flat — the whole point of streaming over buffering.
// The benchmark fails (rather than merely reporting) when they do not.
func BenchmarkCampaign_Streaming(b *testing.B) {
	perTrial := map[int]float64{}
	sizes := []int{1_000, 10_000}
	for _, trials := range sizes {
		trials := trials
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			c := streamCampaign(0, trials)
			sink := NDJSONSink(io.Discard)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Stream(context.Background(), sink); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			allocs := testing.AllocsPerRun(1, func() {
				if err := c.Stream(context.Background(), sink); err != nil {
					b.Fatal(err)
				}
			})
			perTrial[trials] = allocs / float64(trials)
			b.ReportMetric(perTrial[trials], "allocs/trial")
		})
	}
	small, large := perTrial[sizes[0]], perTrial[sizes[1]]
	if small > 0 && large > small*1.5+1 {
		b.Fatalf("streaming allocations are not flat: %.2f allocs/trial at %d trials, %.2f at %d",
			small, sizes[0], large, sizes[1])
	}
}

// BenchmarkCampaign_Buffered is the counterpoint: the buffered path
// necessarily retains every trial, so its numbers bound what streaming
// saves.
func BenchmarkCampaign_Buffered(b *testing.B) {
	for _, trials := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			c := streamCampaign(0, trials)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

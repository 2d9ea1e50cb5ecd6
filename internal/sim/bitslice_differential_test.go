package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// bitsliceCells are supplementary differential cells beyond the
// registry conformance grid: multi-word lane layouts (n > 64), word
// boundaries (n = 64, 65), the widest registry-adjacent fault loads
// and the multi-plane MaxStep moduli, including overload runs (more
// faults injected than the design f) where the patch planes carry
// more senders than the algorithm claims to tolerate.
func bitsliceCells(t *testing.T) []struct {
	label  string
	a      alg.Algorithm
	faults []int
} {
	t.Helper()
	mk := func(a alg.Algorithm, err error) alg.Algorithm {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return []struct {
		label  string
		a      alg.Algorithm
		faults []int
	}{
		{"randagree_n64_f15", mk(counter.NewRandomizedAgree(64, 15)), spreadFaults(64, 15)},
		{"randagree_n65_f21", mk(counter.NewRandomizedAgree(65, 21)), spreadFaults(65, 21)},
		{"randagree_n192_f63", mk(counter.NewRandomizedAgree(192, 63)), spreadFaults(192, 63)},
		{"maxstep_n129_c2", mk(counter.NewMaxStep(129, 2)), nil},
		{"maxstep_n256_c10", mk(counter.NewMaxStep(256, 10)), nil},
		{"maxstep_n256_c10_overload5", mk(counter.NewMaxStep(256, 10)), spreadFaults(256, 5)},
		{"maxstep_n70_c256_overload9", mk(counter.NewMaxStep(70, 256)), spreadFaults(70, 9)},
	}
}

// TestBitslicedMatchesReferenceLarger extends the three-way
// differential grid with cells sized for the bit-sliced layout. Fast
// forward is disabled so the deterministic cells compare the kernel
// itself round for round rather than the engine's analytic conclusion.
func TestBitslicedMatchesReferenceLarger(t *testing.T) {
	advs := []adversary.Adversary{adversary.Silent{}, splitVote, adversary.Equivocate{}}
	seeds := []int64{3, 44}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cell := range bitsliceCells(t) {
		bs, ok := cell.a.(alg.BitSliceStepper)
		if !ok || bs.SliceBits() <= 0 {
			t.Fatalf("%s: cell does not take the bit-sliced path", cell.label)
		}
		for _, adv := range advs {
			if _, silent := adv.(adversary.Silent); len(cell.faults) == 0 && !silent {
				continue
			}
			for _, seed := range seeds {
				label := fmt.Sprintf("%s/%T/seed=%d", cell.label, adv, seed)
				cfg := sim.Config{
					Alg:           cell.a,
					Faulty:        cell.faults,
					Adv:           adv,
					Seed:          seed,
					MaxRounds:     512,
					StopEarly:     true,
					NoFastForward: true,
				}
				want, err := sim.RunReference(cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: bit-sliced: %v", label, err)
				}
				if got != want {
					t.Errorf("%s: bit-sliced kernel diverged:\n  bit-sliced %+v\n  reference  %+v", label, got, want)
				}
			}
		}
	}
}

// TestBitsliceCapability pins which registry stacks qualify for the
// bit-sliced path: the binary and small-modulus leaves do; the
// recursive constructions pack multiple fields into their codec state
// and must not claim the capability.
func TestBitsliceCapability(t *testing.T) {
	sliceable := map[string]bool{
		"trivial":   true,
		"maxstep":   true,
		"randagree": true,
	}
	for _, name := range registry.Names() {
		a, err := registry.Build(name, registry.Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bs, ok := a.(alg.BitSliceStepper)
		qualifies := ok && bs.SliceBits() > 0
		if qualifies != sliceable[name] {
			t.Errorf("%s: bit-sliced capability = %v, want %v", name, qualifies, sliceable[name])
		}
	}
}

// TestBitsliceCampaignConcurrent runs the same campaign with one and
// with four workers and requires identical aggregate stats: trials
// sharing one algorithm instance concurrently exercise the pooled
// plane scratch (sim side) and the per-instance stepping pools
// (counter side). Under `go test -race` (the CI kernel race smoke)
// this is the race check for the word-packed scratch pooling.
func TestBitsliceCampaignConcurrent(t *testing.T) {
	agree, err := counter.NewRandomizedAgree(100, 33)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := counter.NewMaxStep(128, 10)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := func() []harness.Scenario {
		return []harness.Scenario{
			sim.CampaignScenario("randagree", sim.Config{
				Alg:       agree,
				Faulty:    spreadFaults(100, 33),
				Adv:       splitVote,
				MaxRounds: 256,
				StopEarly: true,
			}, 32),
			sim.CampaignScenario("maxstep-overload", sim.Config{
				Alg:           ms,
				Faulty:        spreadFaults(128, 7),
				Adv:           adversary.Equivocate{},
				MaxRounds:     256,
				StopEarly:     true,
				NoFastForward: true,
			}, 32),
		}
	}
	run := func(workers int) *harness.Result {
		res, err := harness.Campaign{
			Name:      "bitslice-race",
			Seed:      17,
			Workers:   workers,
			Scenarios: scenarios(),
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial.Scenarios {
		if !reflect.DeepEqual(serial.Scenarios[i].Stats, parallel.Scenarios[i].Stats) {
			t.Errorf("scenario %s: stats diverge across worker counts:\n  1 worker  %+v\n  4 workers %+v",
				serial.Scenarios[i].Name, serial.Scenarios[i].Stats, parallel.Scenarios[i].Stats)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// The probes time single calls into one layer on inputs captured from
// the simulator, so a per-layer number does not depend on the layers
// around it. They run only in traced runs and are never part of an
// end-to-end metric.

// probeBuilds are the fixed builds the universal probes use: the
// live-ecount build for ecount, the compare builds for the recursion
// stacks, and the live-engine build for maxstep.
var probeBuilds = map[string]registry.Params{
	"ecount":       {N: 32, F: 3, C: 8},
	"ecount-chain": {F: 3, C: 8},
	"theorem2":     {F: 3, C: 8},
	"figure2":      {C: 8},
	"maxstep":      {N: 128, C: 8},
}

// strided is the fault placement of registry.CompareSpec: faults nodes
// spread evenly around the ring, rotating with the trial index.
func strided(trial, n, faults int) []int {
	out := make([]int, 0, faults)
	for j := 0; j < faults; j++ {
		out = append(out, (trial+j*n/faults)%n)
	}
	return out
}

// probeCase is a captured run prefix: the start-of-round configuration
// of every round and the patches the adversary showed each receiver.
type probeCase struct {
	a       alg.Algorithm
	mask    []bool
	senders []int
	configs [][]alg.State
	patches []alg.Patches
	minTime time.Duration
}

// newProbeCase simulates rounds rounds of a with the given faulty nodes
// under adv, capturing each configuration through Config.OnRound, and
// derives each round's patches from the adversary's rows.
func newProbeCase(a alg.Algorithm, faulty []int, adv adversary.Adversary, seed int64, short bool) (*probeCase, error) {
	rounds, minTime := uint64(64), 20*time.Millisecond
	if short {
		rounds, minTime = 8, time.Millisecond
	}
	n := a.N()
	pc := &probeCase{a: a, mask: make([]bool, n), senders: faulty, minTime: minTime}
	for _, f := range faulty {
		pc.mask[f] = true
	}
	_, err := sim.RunFull(sim.Config{
		Alg: a, Faulty: faulty, Adv: adv, Seed: seed, MaxRounds: rounds,
		OnRound: func(_ uint64, states []alg.State, _ []int) {
			pc.configs = append(pc.configs, append([]alg.State(nil), states...))
		},
	})
	if err != nil {
		return nil, err
	}
	view := pc.view(seed)
	rower, _ := adv.(adversary.RowMessenger)
	space := a.StateSpace()
	for r, cfg := range pc.configs {
		view.Round, view.States = uint64(r), cfg
		// A non-empty backing array keeps zero-length rows non-nil: nil
		// rows mark faulty receivers in the alg.Patches contract.
		flat := make([]alg.State, max(n*len(faulty), 1))
		p := alg.Patches{Faulty: pc.mask, Senders: faulty, Values: make([][]alg.State, n)}
		for v := 0; v < n; v++ {
			if pc.mask[v] {
				continue
			}
			row := flat[v*len(faulty) : (v+1)*len(faulty)]
			if rower != nil {
				rower.MessageRow(view, faulty, v, row)
			} else {
				for j, u := range faulty {
					row[j] = adv.Message(view, u, v)
				}
			}
			for j := range row {
				row[j] %= space
			}
			p.Values[v] = row
		}
		pc.patches = append(pc.patches, p)
	}
	return pc, nil
}

func (pc *probeCase) view(seed int64) *adversary.View {
	v := &adversary.View{Faulty: pc.mask, Space: pc.a.StateSpace(), Rng: rand.New(rand.NewSource(seed))}
	v.SetBaseSeed(seed)
	return v
}

func (pc *probeCase) correct() int { return pc.a.N() - len(pc.senders) }

// step times alg.BatchStepper.StepAll and the per-node Step over the
// captured rounds, in ns per correct node, after checking that both
// produce the same next states.
func (pc *probeCase) step() (batchNs, nodeNs float64, err error) {
	a := pc.a
	batch, ok := a.(alg.BatchStepper)
	if !ok {
		return 0, 0, fmt.Errorf("probe: %T has no StepAll", a)
	}
	n := a.N()
	next, recv := make([]alg.State, n), make([]alg.State, n)
	rngs := make([]*rand.Rand, n)
	for i, cfg := range pc.configs {
		batch.StepAll(next, cfg, &pc.patches[i], rngs)
		for v := 0; v < n; v++ {
			if pc.mask[v] {
				continue
			}
			copy(recv, cfg)
			pc.patches[i].Apply(recv, v)
			if s := a.Step(v, recv, nil); s != next[v] {
				return 0, 0, fmt.Errorf("probe: StepAll gives node %d state %d in round %d, Step gives %d", v, next[v], i, s)
			}
		}
	}
	steps, start := 0, time.Now()
	for time.Since(start) < pc.minTime {
		for i, cfg := range pc.configs {
			batch.StepAll(next, cfg, &pc.patches[i], rngs)
		}
		steps += len(pc.configs) * pc.correct()
	}
	batchNs = float64(time.Since(start)) / float64(steps)

	steps, start = 0, time.Now()
	for time.Since(start) < pc.minTime {
		for i, cfg := range pc.configs {
			for v := 0; v < n; v++ {
				if pc.mask[v] {
					continue
				}
				copy(recv, cfg)
				pc.patches[i].Apply(recv, v)
				next[v] = a.Step(v, recv, nil)
			}
		}
		steps += len(pc.configs) * pc.correct()
	}
	return batchNs, float64(time.Since(start)) / float64(steps), nil
}

// row times adversary.RowMessenger.MessageRow over the captured rounds,
// in ns per correct receiver.
func (pc *probeCase) row(adv adversary.Adversary, seed int64) (float64, error) {
	rower, ok := adv.(adversary.RowMessenger)
	if !ok {
		return 0, fmt.Errorf("probe: adversary %s has no MessageRow", adv.Name())
	}
	view := pc.view(seed)
	row := make([]alg.State, len(pc.senders))
	calls, start := 0, time.Now()
	for time.Since(start) < pc.minTime {
		for r, cfg := range pc.configs {
			view.Round, view.States = uint64(r), cfg
			for v := range cfg {
				if !pc.mask[v] {
					rower.MessageRow(view, pc.senders, v, row)
				}
			}
		}
		calls += len(pc.configs) * pc.correct()
	}
	return float64(time.Since(start)) / float64(calls), nil
}

// detectorNs times sim.Detector.Observe on a seeded stream of
// observations: counting rounds with occasional disagreements and
// jumps, so every branch of the rule runs.
func detectorNs(seed int64, minTime time.Duration) float64 {
	rng := rand.New(rand.NewSource(seed))
	const c = 8
	obs := make([]struct {
		agree  bool
		common int
	}, 1<<14)
	v := 0
	for i := range obs {
		v = (v + 1) % c
		switch x := rng.Intn(100); {
		case x == 0:
			obs[i].agree = false
			continue
		case x == 1:
			v = rng.Intn(c)
		}
		obs[i].agree, obs[i].common = true, v
	}
	rounds, start := 0, time.Now()
	for time.Since(start) < minTime {
		d := sim.NewDetector(c, 0)
		for r, o := range obs {
			d.Observe(uint64(r), o.agree, o.common)
		}
		rounds += len(obs)
	}
	return float64(time.Since(start)) / float64(rounds)
}

// universalProbes measures the alg, adversary and detector layers on
// the fixed probe builds, writing the per-stack and per-adversary
// metrics into out.
func universalProbes(seed int64, short bool, out map[string]float64) error {
	var advCase *probeCase
	for _, name := range probeStacks {
		a, err := registry.Build(name, probeBuilds[name])
		if err != nil {
			return err
		}
		pc, err := newProbeCase(a, strided(0, a.N(), a.F()), adversary.Equivocate{}, seed, short)
		if err != nil {
			return err
		}
		batch, node, err := pc.step()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out["alg.step_ns_per_node."+name] = batch
		out["alg.node_step_ns."+name] = node
		if name == "figure2" {
			advCase = pc // the widest fault set: n = 36, f = 7
		}
	}
	for _, name := range probeAdversaries {
		adv, err := adversary.ByName(name)
		if err != nil {
			return err
		}
		ns, err := advCase.row(adv, seed)
		if err != nil {
			return err
		}
		out["adversary.row_ns_per_receiver."+name] = ns
	}
	out["sim.detector_ns_per_round"] = detectorNs(seed, advCase.minTime)
	return nil
}

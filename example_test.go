package synchcount_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sort"

	"github.com/synchcount/synchcount"
)

// Example_quickstart builds the paper's A(4,1) counter — four nodes,
// one Byzantine, counting modulo 3 — and watches it stabilise from an
// arbitrary initial configuration, reproducing the worked execution at
// the start of Section 1:
//
//	Node 1: 2 2 0 2 0 0 1 2 0 1 2 ...
//	Node 2: 0 2 0 1 0 0 1 2 0 1 2 ...
//	Node 3: faulty node, arbitrary behaviour
//	Node 4: 0 0 2 0 2 0 1 2 0 1 2 ...
//	        `--- stabilisation ---'`--- counting ---'
func Example_quickstart() {
	// A synchronous 3-counter for n = 4 nodes tolerating f = 1 Byzantine
	// failure, built by the paper's Theorem 1 from the trivial 1-node
	// counter (Corollary 1).
	cnt, err := synchcount.OptimalResilience(1, 3)
	if err != nil {
		log.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	fmt.Printf("counter: n=%d nodes, f=%d Byzantine, counting mod %d\n", cnt.N(), cnt.F(), cnt.C())
	fmt.Printf("state  : %d bits per node; stabilises within %d rounds, guaranteed\n\n",
		synchcount.StateBits(cnt), bound)

	// Record every node's output over time. Node 2 is Byzantine and
	// equivocates (sends different states to different peers each round).
	const horizon = 40
	traces := make([][]int, cnt.N())
	res, err := synchcount.SimulateFull(synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{2},
		Adv:       synchcount.MustAdversary("equivocate"),
		Seed:      7,
		MaxRounds: horizon,
		Window:    16,
		OnRound: func(_ uint64, _ []synchcount.State, outputs []int) {
			for i, o := range outputs {
				traces[i] = append(traces[i], o)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	for i, trace := range traces {
		if i == 2 {
			fmt.Printf("node %d: faulty node, arbitrary behaviour\n", i+1)
			continue
		}
		line := fmt.Sprintf("node %d:", i+1)
		for _, o := range trace {
			line += fmt.Sprintf(" %d", o)
		}
		fmt.Println(line)
	}
	if res.Stabilised {
		fmt.Printf("\nstabilised at round %d: from there on, all correct nodes agree and count mod %d\n",
			res.StabilisationTime, cnt.C())
	} else {
		fmt.Println("\ndid not stabilise within the horizon (unexpected!)")
	}

	// Output:
	// counter: n=4 nodes, f=1 Byzantine, counting mod 3
	// state  : 15 bits per node; stabilises within 2304 rounds, guaranteed
	//
	// node 1: 2 0 1 0 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2
	// node 2: 0 1 2 0 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2
	// node 3: faulty node, arbitrary behaviour
	// node 4: 0 1 1 0 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2 0 1 2
	//
	// stabilised at round 4: from there on, all correct nodes agree and count mod 3
}

// Example_faultlab tours the Byzantine adversary suite. It runs the same
// 4-node, 1-resilient counter against every built-in attack strategy —
// plus the construction-aware saboteur from a crafted initial
// configuration — and reports the measured stabilisation times against
// the Theorem 1 bound, demonstrating that self-stabilisation holds
// uniformly while the *time* varies enormously with the attack.
func Example_faultlab() {
	cnt, err := synchcount.OptimalResilience(1, 960)
	if err != nil {
		log.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	fmt.Printf("counter A(4,1) mod %d — Theorem 1 bound: T <= %d rounds\n\n", cnt.C(), bound)
	fmt.Printf("%-12s %-12s %-14s %s\n", "adversary", "init", "measured T", "bound use")
	fmt.Printf("%-12s %-12s %-14s %s\n", "---------", "----", "----------", "---------")

	type row struct {
		name string
		init string
		t    uint64
	}
	var rows []row

	run := func(name, initKind string, adv synchcount.Adversary, init []synchcount.State) {
		st, err := synchcount.SimulateMany(synchcount.SimConfig{
			Alg:       cnt,
			Faulty:    []int{0}, // node 0 is king 0: the strongest fault position
			Adv:       adv,
			Init:      init,
			Seed:      11,
			MaxRounds: bound + 512,
			Window:    128,
		}, 5)
		if err != nil {
			log.Fatal(err)
		}
		if st.Stabilised < 5 {
			log.Fatalf("%s: only %d/5 runs stabilised — Theorem 1 violated", name, st.Stabilised)
		}
		rows = append(rows, row{name: name, init: initKind, t: st.MaxTime})
	}

	for _, name := range synchcount.Adversaries() {
		run(name, "random", synchcount.MustAdversary(name), nil)
	}
	worst, err := cnt.WorstInit()
	if err != nil {
		log.Fatal(err)
	}
	run("saboteur", "crafted", synchcount.Saboteur(cnt), worst)

	sort.Slice(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
	for _, r := range rows {
		fmt.Printf("%-12s %-12s %-14d %6.1f%%\n", r.name, r.init, r.t, 100*float64(r.t)/float64(bound))
	}
	fmt.Println("\nevery attack stabilises within the bound; only the construction-aware")
	fmt.Println("attack from a crafted start exercises the leader-window alignment term.")

	// Output:
	// counter A(4,1) mod 960 — Theorem 1 bound: T <= 2304 rounds
	//
	// adversary    init         measured T     bound use
	// ---------    ----         ----------     ---------
	// mirror       random       2                 0.1%
	// random       random       4                 0.2%
	// splitvote    random       6                 0.3%
	// spread       random       13                0.6%
	// equivocate   random       22                1.0%
	// flip         random       178               7.7%
	// silent       random       178               7.7%
	// saboteur     crafted      614              26.6%
	//
	// every attack stabilises within the bound; only the construction-aware
	// attack from a crafted start exercises the leader-window alignment term.
}

// Example_tdma is the paper's motivating application. "Synchronous
// counting is a coordination primitive that can be used e.g. in large
// integrated circuits to synchronise subsystems so that we can easily
// implement mutual exclusion and time division multiple access in a
// fault-tolerant manner."
//
// This example builds a shared bus with 12 subsystems, 3 of which are
// Byzantine. Each subsystem may drive the bus only in its own slot of a
// 12-slot TDMA schedule derived from the self-stabilising counter. The
// example injects a power-on glitch (arbitrary initial states) and shows
// that after stabilisation every correct subsystem gets its slot and no
// two correct subsystems ever drive the bus simultaneously, no matter
// what the Byzantine subsystems do.
func Example_tdma() {
	const slots = 12

	// A 12-node, 3-resilient counter counting modulo the slot count:
	// two recursion levels (A(4,1) inside A(12,3)).
	plan := synchcount.Plan{
		Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}},
		C:      slots,
	}
	cnt, _, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bus arbiter: %d subsystems, %d Byzantine tolerated, %d TDMA slots\n",
		cnt.N(), cnt.F(), slots)
	fmt.Printf("guarantee  : collision-free within %d clock ticks of any glitch\n\n", stats.TimeBound)

	byzantine := []int{1, 6, 11}
	isByz := map[int]bool{1: true, 6: true, 11: true}
	cfg := synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    byzantine,
		Adv:       synchcount.Saboteur(cnt), // construction-aware worst-case attack
		Seed:      3,
		MaxRounds: stats.TimeBound + 256,
		Window:    64,
	}

	// Pass 1: find the stabilisation tick for this (deterministic) run.
	res, err := synchcount.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Stabilised {
		log.Fatal("bus never stabilised — impossible within the fault budget")
	}
	fmt.Printf("power-on glitch injected; Byzantine subsystems %v attack the arbiter\n", byzantine)
	fmt.Printf("bus stabilised at tick %d\n\n", res.StabilisationTime)

	// Pass 2: replay the identical run and audit the bus after
	// stabilisation. Subsystem i drives the bus iff its counter reads
	// its own slot number i.
	collisions, silentRounds := 0, 0
	driversSeen := make(map[int]bool)
	cfg.OnRound = func(round uint64, _ []synchcount.State, outputs []int) {
		if round < res.StabilisationTime {
			return
		}
		var drivers []int
		for i, slot := range outputs {
			if !isByz[i] && slot == i {
				drivers = append(drivers, i)
			}
		}
		switch {
		case len(drivers) > 1:
			collisions++
		case len(drivers) == 0:
			silentRounds++ // the slot owner is Byzantine: bus idles, no harm
		default:
			driversSeen[drivers[0]] = true
		}
	}
	if _, err := synchcount.SimulateFull(cfg); err != nil {
		log.Fatal(err)
	}

	fmt.Println("after stabilisation:")
	fmt.Printf("  bus collisions among correct subsystems : %d\n", collisions)
	fmt.Printf("  rounds where the bus idled (Byzantine slot owner): %d\n", silentRounds)
	fmt.Printf("  correct subsystems that transmitted     : %d of %d\n",
		len(driversSeen), cnt.N()-len(byzantine))
	if collisions == 0 && len(driversSeen) == cnt.N()-len(byzantine) {
		fmt.Println("\nTDMA holds: every correct subsystem transmits, none ever collide.")
	}

	// Output:
	// bus arbiter: 12 subsystems, 3 Byzantine tolerated, 12 TDMA slots
	// guarantee  : collision-free within 3264 clock ticks of any glitch
	//
	// power-on glitch injected; Byzantine subsystems [1 6 11] attack the arbiter
	// bus stabilised at tick 11
	//
	// after stabilisation:
	//   bus collisions among correct subsystems : 0
	//   rounds where the bus idled (Byzantine slot owner): 877
	//   correct subsystems that transmitted     : 9 of 9
	//
	// TDMA holds: every correct subsystem transmits, none ever collide.
}

// Example_energy is the Section 5 pulling-model scenario. In a
// circuit, each node pays the energy for the messages *it* pulls;
// limiting the per-round pull budget of every node also caps what
// Byzantine nodes can spend.
//
// This example runs the 12-node counter three ways — the deterministic
// broadcast embedding, the sampled counter of Theorem 4, and the
// pseudo-random fixed-wiring counter of Corollary 5 — and compares
// per-node energy (pulls and bits per round) against reliability.
func Example_energy() {
	plan := synchcount.Plan{
		Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}},
		C:      8,
	}
	cnt, _, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		log.Fatal(err)
	}
	faulty := []int{4, 10}
	horizon := stats.TimeBound + 1500

	fmt.Printf("network: A(%d,%d), faults %v, horizon %d rounds\n\n", cnt.N(), cnt.F(), faulty, horizon)
	fmt.Printf("%-26s %-12s %-12s %-12s %s\n", "variant", "pulls/round", "bits/round", "stabilised", "violations")
	fmt.Printf("%-26s %-12s %-12s %-12s %s\n", "-------", "-----------", "----------", "----------", "----------")

	report := func(name string, a synchcount.PullAlgorithm) {
		res, err := synchcount.SimulatePullFull(synchcount.PullConfig{
			Alg:       a,
			Faulty:    faulty,
			Adv:       synchcount.MustAdversary("equivocate"),
			Seed:      21,
			MaxRounds: horizon,
			Window:    96,
		})
		if err != nil {
			log.Fatal(err)
		}
		stab := "no"
		if res.Stabilised {
			stab = fmt.Sprintf("round %d", res.StabilisationTime)
		}
		fmt.Printf("%-26s %-12d %-12d %-12s %d\n", name, res.MaxPulls, res.MaxBits, stab, res.Violations)
	}

	// Deterministic reference: pull everything (Theorem 1 as-is).
	report("broadcast (det.)", synchcount.PullBroadcast(cnt))

	// Theorem 4: fresh samples each round. Small M trades energy for a
	// residual per-round failure probability (violations > 0 possible).
	for _, m := range []int{6, 24} {
		s, err := synchcount.Sampled(cnt, m, false, 1)
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("sampled M=%d (Thm 4)", m), s)
	}

	// Corollary 5: wiring fixed once; against an oblivious adversary a
	// good wiring stabilises and then counts deterministically forever.
	s, err := synchcount.Sampled(cnt, 24, true, 99)
	if err != nil {
		log.Fatal(err)
	}
	report("pseudo-random M=24 (Cor 5)", s)

	fmt.Println("\nreading: the sampled counters cap every node's energy budget; larger M buys")
	fmt.Println("reliability, and fixing the wiring (Cor 5) removes the residual failure rate")
	fmt.Println("entirely once stabilised — at the cost of assuming an oblivious adversary.")

	// Output:
	// network: A(12,3), faults [4 10], horizon 4764 rounds
	//
	// variant                    pulls/round  bits/round   stabilised   violations
	// -------                    -----------  ----------   ----------   ----------
	// broadcast (det.)           11           297          round 2      0
	// sampled M=6 (Thm 4)        28           756          no           0
	// sampled M=24 (Thm 4)       100          2700         round 56     162
	// pseudo-random M=24 (Cor 5) 100          2700         round 2      0
	//
	// reading: the sampled counters cap every node's energy budget; larger M buys
	// reliability, and fixing the wiring (Cor 5) removes the residual failure rate
	// entirely once stabilised — at the cost of assuming an oblivious adversary.
}

// Example_consensus makes the paper's introductory observation
// executable — "given a synchronous counting algorithm one can design a
// binary consensus algorithm". A stabilised counter provides the round numbers
// that the phase king protocol needs, turning it into a self-stabilising
// *repeated consensus* service: every epoch of 3(f+2) rounds decides one
// value with agreement and validity, forever, despite Byzantine nodes
// and despite the arbitrary power-on state.
//
// Scenario: four replicas vote each epoch on whether to commit a batch
// (binary consensus). Replica 3 is Byzantine. One honest replica
// occasionally dissents; the decision must still be unanimous among
// honest replicas, and unanimous votes must win.
func Example_consensus() {
	// Clock: the A(4,1) counter, modulus 90 = 10 epochs of τ = 9 rounds.
	clock, err := synchcount.OptimalResilience(1, 90)
	if err != nil {
		log.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(clock)

	// Votes: epochs alternate between unanimous commits and a split
	// vote where replica (epoch mod 3) dissents.
	votes := func(node int, epoch uint64) uint64 {
		if epoch%2 == 0 {
			return 1 // everyone votes commit
		}
		if uint64(node) == epoch%3 {
			return 0 // one dissenter
		}
		return 1
	}
	svc, err := synchcount.RepeatedConsensus(clock, 2, votes)
	if err != nil {
		log.Fatal(err)
	}
	tau := uint64(3 * (svc.F() + 2)) // one phase king sweep per epoch
	fmt.Printf("replicated commit service: %d replicas, %d Byzantine, epoch = %d ticks\n",
		svc.N(), svc.F(), tau)
	fmt.Printf("self-stabilises within %d ticks of any glitch\n\n", bound)

	byz := 3
	type epochResult struct {
		epoch     uint64
		decisions []int
	}
	var results []epochResult
	_, err = synchcount.SimulateFull(synchcount.SimConfig{
		Alg:       svc,
		Faulty:    []int{byz},
		Adv:       synchcount.MustAdversary("splitvote"),
		Seed:      5,
		MaxRounds: bound + 200,
		Window:    1,
		OnRound: func(round uint64, states []synchcount.State, outputs []int) {
			if round <= bound {
				return
			}
			val := uint64(svc.ClockValue(0, states[0]))
			if val%tau != 0 || val/tau == 0 {
				return
			}
			r := epochResult{epoch: val/tau - 1}
			for u, d := range outputs {
				if u != byz {
					r.decisions = append(r.decisions, d)
				}
			}
			results = append(results, r)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("post-stabilisation epochs (decisions of the 3 honest replicas):")
	agreed, valid := true, true
	for _, r := range results {
		verdict := "commit"
		if r.decisions[0] == 0 {
			verdict = "abort"
		}
		kind := "unanimous commit votes"
		if r.epoch%2 == 1 {
			kind = fmt.Sprintf("replica %d dissents", r.epoch%3)
		}
		fmt.Printf("  epoch %2d (%-22s): decisions %v -> %s\n", r.epoch, kind, r.decisions, verdict)
		for _, d := range r.decisions[1:] {
			if d != r.decisions[0] {
				agreed = false
			}
		}
		if r.epoch%2 == 0 && r.decisions[0] != 1 {
			valid = false
		}
	}
	fmt.Println()
	switch {
	case agreed && valid:
		fmt.Println("agreement held in every epoch; unanimous votes always committed.")
	case !agreed:
		fmt.Println("AGREEMENT VIOLATED — this should be impossible")
	default:
		fmt.Println("VALIDITY VIOLATED — this should be impossible")
	}

	// Output:
	// replicated commit service: 4 replicas, 1 Byzantine, epoch = 9 ticks
	// self-stabilises within 2304 ticks of any glitch
	//
	// post-stabilisation epochs (decisions of the 3 honest replicas):
	//   epoch  5 (replica 2 dissents    ): decisions [1 1 1] -> commit
	//   epoch  6 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  7 (replica 1 dissents    ): decisions [1 1 1] -> commit
	//   epoch  8 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  0 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  1 (replica 1 dissents    ): decisions [1 1 1] -> commit
	//   epoch  2 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  3 (replica 0 dissents    ): decisions [0 0 0] -> abort
	//   epoch  4 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  5 (replica 2 dissents    ): decisions [1 1 1] -> commit
	//   epoch  6 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  7 (replica 1 dissents    ): decisions [1 1 1] -> commit
	//   epoch  8 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  0 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  1 (replica 1 dissents    ): decisions [1 1 1] -> commit
	//   epoch  2 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  3 (replica 0 dissents    ): decisions [0 0 0] -> abort
	//   epoch  4 (unanimous commit votes): decisions [1 1 1] -> commit
	//   epoch  5 (replica 2 dissents    ): decisions [1 1 1] -> commit
	//   epoch  6 (unanimous commit votes): decisions [1 1 1] -> commit
	//
	// agreement held in every epoch; unanimous votes always committed.
}

// Example_sharding runs one campaign three ways — buffered, streamed
// and split into shards — and checks that they agree byte for byte.
// Trial seeds depend only on a trial's grid position, so the streamed
// NDJSON equals the buffered export, a ShardSpec survives its JSON
// round trip, and the streams of a 3-way split, in shard order, make
// up the unsharded NDJSON.
// The Corollary 1 counter runs under two adversaries, as
// `synchcount countsim -shard` slices its grid.
func Example_sharding() {
	cnt, err := synchcount.OptimalResilience(1, 4)
	if err != nil {
		log.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	cfg := func(adv string) synchcount.SimConfig {
		return synchcount.SimConfig{
			Alg:       cnt,
			Faulty:    []int{2},
			Adv:       synchcount.MustAdversary(adv),
			MaxRounds: bound + 128,
			Window:    64,
			StopEarly: true,
		}
	}
	campaign := func(workers int) synchcount.Campaign {
		return synchcount.Campaign{
			Name:    "shard-facade",
			Seed:    99,
			Workers: workers,
			Scenarios: []synchcount.Scenario{
				synchcount.SimScenario("splitvote", cfg("splitvote"), 5),
				synchcount.SimScenario("equivocate", cfg("equivocate"), 3),
			},
		}
	}
	ctx := context.Background()

	full, err := campaign(0).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	var wantNDJSON bytes.Buffer
	if err := full.WriteNDJSON(&wantNDJSON); err != nil {
		log.Fatal(err)
	}

	// Stream on two workers: to an NDJSON sink and to a callback that
	// sees every trial in deterministic order.
	var streamed bytes.Buffer
	tail := synchcount.CampaignSinkFunc(func(rec synchcount.CampaignTrialRecord) error {
		fmt.Printf("%-10s trial %d: stabilised at round %d\n", rec.Scenario, rec.Trial.Trial, rec.StabilisationTime)
		return nil
	})
	if err := campaign(2).Stream(ctx, synchcount.CampaignNDJSONSink(&streamed), tail); err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed NDJSON equals buffered:", bytes.Equal(wantNDJSON.Bytes(), streamed.Bytes()))

	// Split into three shards, each spec passed through its JSON
	// hand-off form as it would be to another process.
	const k = 3
	specs := make([]synchcount.ShardSpec, k)
	roundTrips := true
	for i := range specs {
		spec, err := campaign(1).Shard(i, k)
		if err != nil {
			log.Fatal(err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			log.Fatal(err)
		}
		if specs[i], err = synchcount.ParseShardSpec(data); err != nil {
			log.Fatal(err)
		}
		again, err := json.Marshal(specs[i])
		if err != nil {
			log.Fatal(err)
		}
		roundTrips = roundTrips && bytes.Equal(data, again)
	}
	fmt.Println("shard specs round-trip through JSON:", roundTrips)

	var sharded bytes.Buffer
	for _, spec := range specs {
		for _, sl := range spec.Slices {
			fmt.Printf("shard %d/%d: %s trials [%d, %d)\n", spec.Shard, spec.Of, sl.Scenario, sl.From, sl.To)
		}
		if err := campaign(1).StreamShard(ctx, spec, synchcount.CampaignNDJSONSink(&sharded)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("3 shard streams make up the unsharded NDJSON:", bytes.Equal(wantNDJSON.Bytes(), sharded.Bytes()))

	// Output:
	// splitvote  trial 0: stabilised at round 2
	// splitvote  trial 1: stabilised at round 2
	// splitvote  trial 2: stabilised at round 4
	// splitvote  trial 3: stabilised at round 2
	// splitvote  trial 4: stabilised at round 0
	// equivocate trial 0: stabilised at round 2
	// equivocate trial 1: stabilised at round 2
	// equivocate trial 2: stabilised at round 4
	// streamed NDJSON equals buffered: true
	// shard specs round-trip through JSON: true
	// shard 0/3: splitvote trials [0, 2)
	// shard 1/3: splitvote trials [2, 5)
	// shard 2/3: equivocate trials [0, 3)
	// 3 shard streams make up the unsharded NDJSON: true
}

// Example_registry lists the algorithm registry: every registered
// stack, built from its default (n, f, c), with its predicted
// stabilisation bound. The randomised baseline exposes no bound.
func Example_registry() {
	fmt.Printf("%-12s %4s %3s %4s  %s\n", "algorithm", "n", "f", "c", "bound")
	for _, name := range synchcount.RegisteredAlgorithms() {
		a, err := synchcount.BuildRegistered(name, synchcount.RegistryParams{})
		if err != nil {
			log.Fatal(err)
		}
		bound := "-"
		if b, err := synchcount.StabilisationBound(a); err == nil {
			bound = fmt.Sprint(b)
		}
		fmt.Printf("%-12s %4d %3d %4d  %s\n", name, a.N(), a.F(), a.C(), bound)
	}

	// Output:
	// algorithm       n   f    c  bound
	// trivial         1   0   10  0
	// maxstep         4   0   10  1
	// randagree       4   1    2  -
	// corollary1      4   1   10  2304
	// theorem2       16   3   10  6144
	// figure2        36   7   10  4992
	// ecount          4   1   10  73
	// ecount-chain    4   1   10  73
}

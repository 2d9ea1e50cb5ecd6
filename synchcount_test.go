package synchcount

import (
	"testing"
)

func TestOptimalResilience(t *testing.T) {
	cnt, err := OptimalResilience(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.N() != 4 || cnt.F() != 1 || cnt.C() != 10 {
		t.Fatalf("N,F,C = %d,%d,%d want 4,1,10", cnt.N(), cnt.F(), cnt.C())
	}
	if !IsDeterministic(cnt) {
		t.Error("construction must be deterministic")
	}
	bound, err := StabilisationBound(cnt)
	if err != nil || bound != 2304 {
		t.Fatalf("StabilisationBound = %d, %v", bound, err)
	}
	res, err := Simulate(SimConfig{
		Alg:       cnt,
		Faulty:    []int{2},
		Adv:       MustAdversary("splitvote"),
		Seed:      1,
		MaxRounds: bound + 200,
		Window:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatal("did not stabilise")
	}
}

func TestScalable(t *testing.T) {
	cnt, err := Scalable(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.N() != 16 || cnt.F() != 3 {
		t.Fatalf("N,F = %d,%d want 16,3", cnt.N(), cnt.F())
	}
}

func TestFigure2(t *testing.T) {
	cnt, err := Figure2(10)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.N() != 36 || cnt.F() != 7 {
		t.Fatalf("N,F = %d,%d want 36,7", cnt.N(), cnt.F())
	}
	if bits := StateBits(cnt); bits > 40 {
		t.Fatalf("StateBits = %d, expected <= 40", bits)
	}
}

func TestPlansRoundTrip(t *testing.T) {
	p, err := PlanFixedK(4, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := PredictPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	top, levels, built, err := FromPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || top.N() != pred.N || built.TimeBound != pred.TimeBound {
		t.Fatalf("plan round trip mismatch: %+v vs %+v", built, pred)
	}
	if _, err := PlanVaryingK(1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestBaselines(t *testing.T) {
	if _, err := TrivialCounter(4); err != nil {
		t.Error(err)
	}
	r, err := RandomizedAgree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if IsDeterministic(r) {
		t.Error("randomised baseline claims determinism")
	}
	if _, err := StabilisationBound(r); err == nil {
		t.Error("randomised baseline should not expose a bound")
	}
}

func TestAdversaryRegistry(t *testing.T) {
	names := Adversaries()
	if len(names) < 6 {
		t.Fatalf("only %d adversaries registered", len(names))
	}
	for _, n := range names {
		if _, err := AdversaryByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := AdversaryByName("bogus"); err == nil {
		t.Error("bogus adversary accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdversary(bogus) must panic")
		}
	}()
	MustAdversary("bogus")
}

func TestBoostDirect(t *testing.T) {
	base, err := TrivialCounter(2304)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := Boost(base, BoostParams{K: 4, F: 1, C: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.N() != 4 {
		t.Fatalf("N = %d", cnt.N())
	}
}

func TestSaboteurAndWorstInit(t *testing.T) {
	cnt, err := OptimalResilience(1, 960)
	if err != nil {
		t.Fatal(err)
	}
	adv := Saboteur(cnt)
	if adv.Name() != "saboteur" {
		t.Error("unexpected saboteur name")
	}
	init, err := cnt.WorstInit()
	if err != nil || len(init) != 4 {
		t.Fatalf("WorstInit: %v, len %d", err, len(init))
	}
}

func TestSampledAndPull(t *testing.T) {
	cnt, err := OptimalResilience(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sampled(cnt, 8, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulatePullFull(PullConfig{Alg: s, Seed: 3, MaxRounds: 3000, Window: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatal("sampled counter did not stabilise")
	}
	b := PullBroadcast(cnt)
	res2, err := SimulatePullFull(PullConfig{Alg: b, Seed: 3, MaxRounds: 2500, Window: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MaxPulls != uint64(cnt.N()-1) {
		t.Fatalf("broadcast embedding pulls %d, want %d", res2.MaxPulls, cnt.N()-1)
	}
}

func TestSynthesise(t *testing.T) {
	found, err := Synthesise(3, 0, SynthOptions{Limit: 1})
	if err != nil || len(found) == 0 {
		t.Fatalf("Synthesise(3,0) = %v, %v", found, err)
	}
}

func TestRepeatedConsensusAPI(t *testing.T) {
	clock, err := OptimalResilience(1, 90)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := RepeatedConsensus(clock, 3, func(node int, epoch uint64) uint64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if svc.N() != 4 || svc.F() != 1 || svc.C() != 3 {
		t.Fatalf("service parameters: N=%d F=%d C=%d", svc.N(), svc.F(), svc.C())
	}
}

func TestGreedyAPI(t *testing.T) {
	cnt, err := OptimalResilience(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(cnt, Saboteur(cnt), 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "greedy+saboteur" {
		t.Fatalf("Name = %q", g.Name())
	}
	r, err := RandomizedAgree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Greedy(r, nil, 4); err == nil {
		t.Fatal("greedy over a randomised algorithm must fail")
	}
}

func TestECountAndRegistryAPI(t *testing.T) {
	cnt, err := BuildRegistered("ecount", RegistryParams{N: 7, F: 2, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.N() != 7 || cnt.F() != 2 || cnt.C() != 10 {
		t.Fatalf("ecount parameters: N=%d F=%d C=%d", cnt.N(), cnt.F(), cnt.C())
	}
	if b, err := StabilisationBound(cnt); err != nil || b == 0 {
		t.Fatalf("ecount bound: %d, %v", b, err)
	}
	chain, err := BuildRegistered("ecount-chain", RegistryParams{N: 7, F: 2, C: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !IsDeterministic(chain) {
		t.Fatal("ecount-chain must be deterministic")
	}

	names := RegisteredAlgorithms()
	if len(names) < 8 {
		t.Fatalf("registry lists %d algorithms: %v", len(names), names)
	}
	a, err := BuildRegistered("ecount", RegistryParams{F: 1, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{
		Alg:       a,
		Faulty:    []int{2},
		Adv:       MustAdversary("splitvote"),
		Seed:      1,
		MaxRounds: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatal("registry-built ecount did not stabilise")
	}
	if _, err := BuildRegistered("nope", RegistryParams{}); err == nil {
		t.Fatal("unknown registry name must fail")
	}
}

package main

import (
	"bufio"
	"io"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/synchcount/synchcount/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernel_Reference_ECount_n64_f7-8         4  291102822 ns/op  568560 ns/round  182725394 B/op  649305 allocs/op
BenchmarkKernel_Vectorized_ECount_n64_f7-8       27   43831877 ns/op   85609 ns/round      2297 B/op      11 allocs/op
BenchmarkKernel_Reference_Figure2_n36_f7-8        8  135524085 ns/op  264695 ns/round  35635523 B/op  326659 allocs/op
BenchmarkKernel_Vectorized_Figure2_n36_f7-8      46   24933290 ns/op   48698 ns/round      1193 B/op       5 allocs/op
PASS
`

func TestParse(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if report.Goos != "linux" || report.Goarch != "amd64" || report.CPU == "" {
		t.Fatalf("header parse: %+v", report)
	}
	if len(report.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(report.Benchmarks))
	}
	b := report.Benchmarks[1]
	if b.Name != "BenchmarkKernel_Vectorized_ECount_n64_f7" {
		t.Fatalf("name with GOMAXPROCS suffix not stripped: %q", b.Name)
	}
	if b.Iterations != 27 || b.Metrics["ns/op"] != 43831877 || b.Metrics["allocs/op"] != 11 {
		t.Fatalf("metrics parse: %+v", b)
	}

	if len(report.Comparisons) != 2 {
		t.Fatalf("paired %d comparisons, want 2", len(report.Comparisons))
	}
	c := report.Comparisons[0]
	if c.Case != "ECount_n64_f7" {
		t.Fatalf("case = %q", c.Case)
	}
	if c.Speedup < 6.5 || c.Speedup > 6.7 {
		t.Fatalf("speedup = %f, want ~6.6", c.Speedup)
	}
	if c.RefNsPerRound != 568560 || c.VecNsPerRound != 85609 {
		t.Fatalf("ns/round not carried: %+v", c)
	}
}

func TestParseRejectsGarbageBenchLine(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken 12\n"))); err == nil {
		t.Fatal("malformed line should fail")
	}
}

func TestPairSkipsUnpaired(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(
		"BenchmarkKernel_Reference_Lonely-8 4 100 ns/op\nPASS\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Comparisons) != 0 {
		t.Fatalf("unpaired case produced a comparison: %+v", report.Comparisons)
	}
}

const ffSample = `goos: linux
pkg: github.com/synchcount/synchcount/internal/sim
BenchmarkKernel_Reference_ECount_n64_f7-8   4  291102822 ns/op
BenchmarkKernel_Vectorized_ECount_n64_f7-8 27   43831877 ns/op
BenchmarkFF_Off_ECount_n16_f3_RunFull16k-8 10  217000000 ns/op
BenchmarkFF_On_ECount_n16_f3_RunFull16k-8  10    8200000 ns/op
BenchmarkFF_Off_Lonely-8                   10    1000000 ns/op
BenchmarkPull_Reference_Gossip_n10000_k32-8 1  826244834 ns/op  12910075 ns/round
BenchmarkPull_Sparse_Gossip_n10000_k32-8    4  255457132 ns/op   3991517 ns/round
BenchmarkBitslice_Reference_RandAgree_n64_f15-8 100  24000000 ns/op  11718 ns/round
BenchmarkBitslice_Sliced_RandAgree_n64_f15-8    400   5400000 ns/op   2636 ns/round
BenchmarkLive_Optimized_FaultFree_n32-8         345   6799787 ns/op   26562 ns/round   267208 B/op    420 allocs/op
BenchmarkLive_EndToEndOpt_Ecount_n32-8           20  50000000 ns/op
PASS
`

// TestPairKinds checks that kernel, fast-forward, pull and bitslice
// pairs are matched under their own kinds and unpaired rows — including
// the live round-engine cells — stay out.
func TestPairKinds(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(ffSample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Comparisons) != 4 {
		t.Fatalf("paired %d comparisons, want 4: %+v", len(report.Comparisons), report.Comparisons)
	}
	kernel, ff, pl, bs := report.Comparisons[0], report.Comparisons[1], report.Comparisons[2], report.Comparisons[3]
	if bs.Kind != "bitslice" || bs.Case != "RandAgree_n64_f15" {
		t.Fatalf("bitslice pair = %+v", bs)
	}
	if bs.Speedup < 4.3 || bs.Speedup > 4.6 {
		t.Fatalf("bitslice speedup = %f, want ~4.4", bs.Speedup)
	}
	if kernel.Kind != "kernel" || kernel.Case != "ECount_n64_f7" {
		t.Fatalf("kernel pair = %+v", kernel)
	}
	if ff.Kind != "fastforward" || ff.Case != "ECount_n16_f3_RunFull16k" {
		t.Fatalf("fastforward pair = %+v", ff)
	}
	if ff.Speedup < 26 || ff.Speedup > 27 {
		t.Fatalf("fastforward speedup = %f, want ~26.5", ff.Speedup)
	}
	if pl.Kind != "pull" || pl.Case != "Gossip_n10000_k32" {
		t.Fatalf("pull pair = %+v", pl)
	}
	if pl.Speedup < 3.1 || pl.Speedup > 3.4 {
		t.Fatalf("pull speedup = %f, want ~3.2", pl.Speedup)
	}
	if pl.RefNsPerRound != 12910075 || pl.VecNsPerRound != 3991517 {
		t.Fatalf("pull ns/round not carried: %+v", pl)
	}
}

// TestGateFloors holds -gate to the pairings table: for every kind, a
// pair just below the kind's floor fails and one at the floor passes,
// and a run with no pairs of the kind fails loudly instead of skipping
// its gate.
func TestGateFloors(t *testing.T) {
	atFloor := func() []Comparison {
		var cs []Comparison
		for _, p := range pairings {
			cs = append(cs, Comparison{Case: "Cell", Kind: p.kind, Speedup: p.floor})
		}
		return cs
	}
	if err := gate(atFloor(), io.Discard); err != nil {
		t.Fatalf("every pair at its floor: %v", err)
	}
	for i, p := range pairings {
		t.Run(p.kind, func(t *testing.T) {
			below := atFloor()
			below[i].Speedup = math.Nextafter(p.floor, 0)
			if err := gate(below, io.Discard); err == nil {
				t.Errorf("%s pair at %.17g passed its %g floor", p.kind, below[i].Speedup, p.floor)
			}
			missing := append(atFloor()[:i:i], atFloor()[i+1:]...)
			err := gate(missing, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "no "+p.kind+" pairs") {
				t.Errorf("no %s pairs: err = %v, want a loud failure", p.kind, err)
			}
		})
	}
}

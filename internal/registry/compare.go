package registry

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/sim"
)

// CompareSpec describes a head-to-head campaign: every selected
// algorithm, built at every selected resilience, runs over the same
// (adversary, trial-seed) grid so stabilisation times and state costs
// compare like for like. The zero value is not runnable; fill Algs
// and Trials at least.
type CompareSpec struct {
	// Algs lists registry names to compare.
	Algs []string
	// Fs lists resiliences to build each algorithm at; empty means one
	// build per algorithm at its spec default.
	Fs []int
	// C is the counter modulus (0 = per-spec default). Note the
	// randomised baselines only count modulo 2.
	C int
	// Adversaries lists Byzantine strategy names (internal/adversary);
	// empty means silent and splitvote.
	Adversaries []string
	// Faults is the number of Byzantine nodes injected per run; 0
	// injects each algorithm's declared resilience. Placement rotates
	// deterministically with the trial index.
	Faults int
	// Trials is the number of runs per scenario cell.
	Trials int
	// Rounds overrides the per-algorithm simulation horizon (0 = the
	// declared bound plus slack, or the spec time budget).
	Rounds uint64
	// Window is the stabilisation confirmation window (0 = simulator
	// default for the built modulus).
	Window uint64
	// Seed is the campaign master seed. Every scenario pins it as its
	// base seed, so all algorithms face the identical trial-seed
	// stream.
	Seed int64
	// Workers bounds concurrent trials (0 = GOMAXPROCS).
	Workers int
	// NoFastForward disables the simulator's periodicity-aware
	// fast-forward engine for the campaign's runs. By default eligible
	// runs (deterministic stacks under snapshottable adversaries)
	// cycle-detect and share confirmed cycles through a per-campaign
	// trajectory memo — the rotating strided fault placements revisit
	// each fault set every N trials, so merged trajectories skip
	// straight to the memoised conclusion. Results are bit-identical
	// either way; the toggle exists for measurement and as a canary.
	NoFastForward bool
	// Memo optionally supplies the trajectory memo the campaign's
	// trials share — a caller-owned memo survives the campaign, so it
	// can be persisted (sim.SaveTrajectoryMemoFile) and reloaded to
	// start repeat campaigns warm. Nil builds a fresh per-campaign
	// memo; ignored under NoFastForward.
	Memo *harness.TrajectoryMemo
}

// CompareCell is the static, per-build metadata of one compare
// column: everything about an algorithm that does not depend on the
// trials. Scenario names are "<alg>/f=<F>/c=<C>/faults=<k>/<adversary>"
// — the parameters that determine what a trial measured ride in the
// name, so joining a result produced under different flags fails
// instead of mislabelling columns; a cell covers all its adversary
// scenarios.
type CompareCell struct {
	// Alg is the registry name.
	Alg string
	// N, F, C are the built algorithm's actual parameters.
	N, F, C int
	// StateBits is the paper's space complexity S = ceil(log2 |X|).
	StateBits int
	// Deterministic reports alg.IsDeterministic.
	Deterministic bool
	// Bound is the declared stabilisation bound, 0 when none.
	Bound uint64
	// Faults is the number of Byzantine nodes injected in this cell's
	// runs.
	Faults int
	// MaxRounds is the simulation horizon of this cell's runs.
	MaxRounds uint64
}

// ScenarioName returns the campaign scenario name of this cell under
// the given adversary.
func (c CompareCell) ScenarioName(adv string) string {
	return fmt.Sprintf("%s/f=%d/c=%d/faults=%d/%s", c.Alg, c.F, c.C, c.Faults, adv)
}

// defaultAdversaries is the crash + Byzantine pair compare runs when
// none are selected.
func defaultAdversaries() []string { return []string{"silent", "splitvote"} }

// Campaign resolves the spec into a runnable harness campaign plus
// the static cell metadata, in deterministic order (algs × fs outer,
// adversaries inner). Every build error is reported eagerly — a
// compare over an algorithm that cannot exist at the requested
// parameters must fail loudly, not silently drop a column.
func (cs CompareSpec) Campaign() (harness.Campaign, []CompareCell, error) {
	if len(cs.Algs) == 0 {
		return harness.Campaign{}, nil, fmt.Errorf("registry: compare needs at least one algorithm")
	}
	if cs.Trials < 1 {
		return harness.Campaign{}, nil, fmt.Errorf("registry: compare needs trials >= 1, got %d", cs.Trials)
	}
	if cs.Faults < 0 {
		return harness.Campaign{}, nil, fmt.Errorf("registry: compare needs faults >= 0, got %d", cs.Faults)
	}
	advNames := cs.Adversaries
	if len(advNames) == 0 {
		advNames = defaultAdversaries()
	}
	advs := make([]adversary.Adversary, len(advNames))
	for i, name := range advNames {
		a, err := adversary.ByName(name)
		if err != nil {
			return harness.Campaign{}, nil, err
		}
		advs[i] = a
	}
	fs := cs.Fs
	if len(fs) == 0 {
		fs = []int{0} // spec default
	}

	seed := cs.Seed
	campaign := harness.Campaign{
		Name:    "compare",
		Seed:    seed,
		Workers: cs.Workers,
	}
	// One trajectory memo per resolved campaign: every scenario's
	// trials share it, keyed by (algorithm build, faulty set,
	// adversary, configuration), so cycle discoveries propagate across
	// the whole compare grid.
	var memo *harness.TrajectoryMemo
	if !cs.NoFastForward {
		memo = cs.Memo
		if memo == nil {
			memo = harness.NewTrajectoryMemo(0)
		}
	}
	var cells []CompareCell
	for _, name := range cs.Algs {
		s, err := byName(name)
		if err != nil {
			return harness.Campaign{}, nil, err
		}
		for _, f := range fs {
			a, err := s.Build(Params{F: f, C: cs.C})
			if err != nil {
				return harness.Campaign{}, nil, err
			}
			faults := cs.Faults
			if faults == 0 {
				faults = a.F()
			}
			if faults > a.N() {
				return harness.Campaign{}, nil, fmt.Errorf("registry: %s: cannot make %d of %d nodes faulty", name, faults, a.N())
			}
			maxRounds := cs.Rounds
			if maxRounds == 0 {
				maxRounds = s.MaxRounds(a)
			}
			cell := CompareCell{
				Alg:           name,
				N:             a.N(),
				F:             a.F(),
				C:             a.C(),
				StateBits:     alg.StateBits(a),
				Deterministic: alg.IsDeterministic(a),
				Faults:        faults,
				MaxRounds:     maxRounds,
			}
			if b, ok := a.(alg.Bound); ok {
				cell.Bound = b.StabilisationBound()
			}
			cells = append(cells, cell)
			for ai, adv := range advs {
				scen := cs.scenario(cell.ScenarioName(advNames[ai]), a, adv, cell, memo)
				scen.Seed = &seed
				campaign.Scenarios = append(campaign.Scenarios, scen)
			}
		}
	}
	return campaign, cells, nil
}

// scenario builds the per-trial simulation scenario of one
// (algorithm build, adversary) cell. The algorithm and adversary are
// shared across concurrent trials — both are read-only by contract —
// while the fault placement strides across the ring and rotates with
// the trial index, so a campaign covers many fault geometries while
// every trial stays a pure function of its grid position (the
// property sharding depends on).
func (cs CompareSpec) scenario(name string, a alg.Algorithm, adv adversary.Adversary, cell CompareCell, memo *harness.TrajectoryMemo) harness.Scenario {
	n := a.N()
	// The memo key identifies the algorithm build; the faulty set and
	// adversary are keyed separately by the engine, so all trials of
	// one build share discoveries wherever their grids coincide.
	algID := fmt.Sprintf("%s/n=%d/f=%d/c=%d", cell.Alg, cell.N, cell.F, cell.C)
	return sim.CampaignScenarioFunc(name, cs.Trials, func(trial int) (sim.Config, error) {
		faulty := make([]int, 0, cell.Faults)
		for j := 0; j < cell.Faults; j++ {
			faulty = append(faulty, (trial+j*n/cell.Faults)%n)
		}
		cfg := sim.Config{
			Alg:           a,
			Faulty:        faulty,
			Adv:           adv,
			MaxRounds:     cell.MaxRounds,
			Window:        cs.Window,
			StopEarly:     true,
			NoFastForward: cs.NoFastForward,
		}
		if memo != nil {
			cfg.Memo = memo
			cfg.MemoAlg = algID
		}
		return cfg, nil
	}, nil)
}

// TableRow is the per-scenario join of static cell metadata and
// measured campaign statistics: the per-algorithm stabilisation-time
// and state-bit columns of the comparison suite.
type TableRow struct {
	Scenario      string
	Alg           string
	Adversary     string
	N, F, C       int
	Faults        int
	StateBits     int
	Deterministic bool
	Bound         uint64
	Stats         harness.Stats
}

// Table joins cells with a campaign result, in result order. The join
// must be exact both ways: a result scenario no cell produced, or a
// cell scenario the result lacks, means the result came from a
// different comparison (other algorithms, modulus, fault count or
// adversaries) and joining it would mislabel columns.
func Table(cells []CompareCell, advNames []string, res *harness.Result) ([]TableRow, error) {
	if len(advNames) == 0 {
		advNames = defaultAdversaries()
	}
	index := make(map[string]struct {
		cell CompareCell
		adv  string
	}, len(cells)*len(advNames))
	for _, cell := range cells {
		for _, adv := range advNames {
			index[cell.ScenarioName(adv)] = struct {
				cell CompareCell
				adv  string
			}{cell, adv}
		}
	}
	rows := make([]TableRow, 0, len(res.Scenarios))
	seen := make(map[string]bool, len(index))
	for _, sc := range res.Scenarios {
		meta, ok := index[sc.Name]
		if !ok {
			return nil, fmt.Errorf("registry: result scenario %q does not belong to this comparison", sc.Name)
		}
		seen[sc.Name] = true
		rows = append(rows, TableRow{
			Scenario:      sc.Name,
			Alg:           meta.cell.Alg,
			Adversary:     meta.adv,
			N:             meta.cell.N,
			F:             meta.cell.F,
			C:             meta.cell.C,
			Faults:        meta.cell.Faults,
			StateBits:     meta.cell.StateBits,
			Deterministic: meta.cell.Deterministic,
			Bound:         meta.cell.Bound,
			Stats:         sc.Stats,
		})
	}
	for name := range index {
		if !seen[name] {
			return nil, fmt.Errorf("registry: result is missing scenario %q — it was produced by a different comparison", name)
		}
	}
	return rows, nil
}

// WriteTableCSV writes the comparison table as CSV: one row per
// (algorithm, adversary) scenario with the algorithm's static state
// accounting and the measured stabilisation statistics.
func WriteTableCSV(w io.Writer, rows []TableRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scenario", "alg", "adversary", "n", "f", "c", "faults",
		"state_bits", "deterministic", "bound",
		"trials", "stabilised", "mean_time", "median_time", "p95_time", "max_time", "violations",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		st := r.Stats
		if err := cw.Write([]string{
			r.Scenario, r.Alg, r.Adversary,
			strconv.Itoa(r.N), strconv.Itoa(r.F), strconv.Itoa(r.C), strconv.Itoa(r.Faults),
			strconv.Itoa(r.StateBits), strconv.FormatBool(r.Deterministic), strconv.FormatUint(r.Bound, 10),
			strconv.Itoa(st.Trials), strconv.Itoa(st.Stabilised),
			strconv.FormatFloat(st.MeanTime, 'g', -1, 64),
			strconv.FormatFloat(st.MedianTime, 'g', -1, 64),
			strconv.FormatFloat(st.P95Time, 'g', -1, 64),
			strconv.FormatUint(st.MaxTime, 10),
			strconv.FormatUint(st.Violations, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FprintTable renders the comparison table for humans.
func FprintTable(w io.Writer, rows []TableRow) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "ALG\tADVERSARY\tN\tF\tC\tFAULTS\tBITS\tDET\tBOUND\tSTAB\tT MEAN\tT MEDIAN\tT P95\tT MAX")
	for _, r := range rows {
		st := r.Stats
		bound := "-"
		if r.Bound > 0 {
			bound = strconv.FormatUint(r.Bound, 10)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%v\t%s\t%d/%d\t%.1f\t%.1f\t%.1f\t%d\n",
			r.Alg, r.Adversary, r.N, r.F, r.C, r.Faults, r.StateBits, r.Deterministic, bound,
			st.Stabilised, st.Trials, st.MeanTime, st.MedianTime, st.P95Time, st.MaxTime)
	}
	return tw.Flush()
}

package harness

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/synchcount/synchcount/internal/alg"
)

// TrajectoryKey identifies the dynamics a confirmed cycle belongs to
// within a campaign: the algorithm build, the exact faulty set and the
// adversary strategy. Deterministic dynamics make the future of a
// configuration a pure function of these coordinates plus the
// adversary's round phase, so a cycle recorded by one trial is valid
// for every other trial — and every later run — that reaches one of
// its configurations at the same phase.
type TrajectoryKey struct {
	// Alg identifies the algorithm build (name plus parameters).
	Alg string `json:"alg"`
	// Faulty is the canonical (ascending, comma-joined) faulty set.
	Faulty string `json:"faulty"`
	// Adversary is the strategy name.
	Adversary string `json:"adversary"`
}

// TrajectoryObs is one round's observation: whether all correct nodes
// agreed, and on which output value — exactly what the simulator's
// stabilisation detector consumes.
type TrajectoryObs struct {
	Agree  bool
	Common int
}

// TrajectoryCycle is one confirmed cycle of length L = len(Ring).
// Rows[j] is the configuration of the cycle's j-th round, reached at
// round phase (Start+j) mod Period, and Ring[j] is that round's
// observation. Rows holds all L configurations, or a prefix of them
// (down to the first alone) for cycles too long to keep every one.
type TrajectoryCycle struct {
	Key    TrajectoryKey
	Period uint64
	Start  uint64
	Rows   [][]alg.State
	Ring   []TrajectoryObs
}

// defaultTrajectoryMemoCapacity bounds a memo built with capacity 0.
const defaultTrajectoryMemoCapacity = 4096

// memoRow is the index key of one stored configuration. The hash is
// only a candidate filter: Lookup compares the full configuration, so
// hash collisions cost a compare, never correctness.
type memoRow struct {
	key   TrajectoryKey
	phase uint64
	hash  uint64
}

// memoRef locates an indexed configuration: cycles[cycle].Rows[offset].
type memoRef struct{ cycle, offset int }

// TrajectoryMemo is the bounded, concurrency-safe store of confirmed
// cycles the trials of one campaign share: trials whose trajectories
// merge — the common case in strided fault-placement compare grids and
// in the conformance suite's Run-then-RunFull replays — skip straight
// to the memoised cycle instead of re-detecting it. Each cycle is
// stored once, and each of its configurations is indexed under
// (key, phase, hash). The store is append-only and first-write-wins:
// cycles are facts about the deterministic dynamics, so late or racing
// writers can only restate them. The capacity bounds the number of
// indexed configurations; past it further rows are rejected (bounded
// memory, and the retained cycles stay valid) and lookups are
// unaffected.
type TrajectoryMemo struct {
	mu       sync.RWMutex
	capacity int
	// cycles holds every stored cycle with its Ring doubled (2L
	// observations), so the cycle rotated to any offset is a subslice.
	cycles []TrajectoryCycle
	index  map[memoRow]memoRef

	hits     atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64
}

// NewTrajectoryMemo returns a memo bounded to capacity indexed
// configurations; capacity <= 0 selects defaultTrajectoryMemoCapacity.
func NewTrajectoryMemo(capacity int) *TrajectoryMemo {
	if capacity <= 0 {
		capacity = defaultTrajectoryMemoCapacity
	}
	return &TrajectoryMemo{capacity: capacity, index: make(map[memoRow]memoRef)}
}

// Lookup returns the observations of one full cycle starting at
// config, if config is stored under k at this round phase. Rows are
// indexed under alg.HashConfig, so only that hash of config can hit.
// The returned ring is shared and must not be modified.
func (m *TrajectoryMemo) Lookup(k TrajectoryKey, phase, hash uint64, config []alg.State) ([]TrajectoryObs, bool) {
	var ring []TrajectoryObs
	m.mu.RLock()
	if ref, ok := m.index[memoRow{k, phase, hash}]; ok {
		c := &m.cycles[ref.cycle]
		if slices.Equal(c.Rows[ref.offset], config) {
			end := ref.offset + len(c.Ring)/2
			ring = c.Ring[ref.offset:end:end]
		}
	}
	m.mu.RUnlock()
	if ring == nil {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return ring, true
}

// Add stores c, taking ownership of its Rows, and returns how many of
// its configurations it indexed. A configuration already indexed is
// left to its first writer; one arriving when the memo is full is
// rejected together with the rest of the rows, and the cycle is kept
// with the prefix that fit. A cycle that indexes nothing is not
// stored. c.Period must be positive.
func (m *TrajectoryMemo) Add(c TrajectoryCycle) int {
	L := len(c.Ring)
	ring := make([]TrajectoryObs, 2*L)
	copy(ring, c.Ring)
	copy(ring[L:], c.Ring)
	c.Ring = ring

	m.mu.Lock()
	defer m.mu.Unlock()
	id, added := len(m.cycles), 0
	for j, row := range c.Rows {
		k := memoRow{c.Key, (c.Start + uint64(j)) % c.Period, alg.HashConfig(row)}
		if _, ok := m.index[k]; ok {
			continue
		}
		if len(m.index) >= m.capacity {
			m.rejected.Add(1)
			c.Rows = c.Rows[:j]
			break
		}
		m.index[k] = memoRef{id, j}
		added++
	}
	if added > 0 {
		m.cycles = append(m.cycles, c)
	}
	return added
}

// Len returns the number of indexed configurations.
func (m *TrajectoryMemo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.index)
}

// Stats reports verified lookup hits, lookup misses and the inserts
// cut short by the capacity since construction.
func (m *TrajectoryMemo) Stats() (hits, misses, rejected uint64) {
	return m.hits.Load(), m.misses.Load(), m.rejected.Load()
}

// memoFileSchema versions the Save/Load interchange format; a file
// written by an incompatible revision is rejected loudly instead of
// being half-understood.
const memoFileSchema = "synchcount-trajectory-memo/v2"

// memoFileHeader is the first line of a saved memo.
type memoFileHeader struct {
	Schema string `json:"schema"`
}

// memoFileCycle is one saved cycle: its configurations and its ring,
// stored columnar. It carries no hashes — Load recomputes them from
// the rows — so a file is linear in the cycle lengths.
type memoFileCycle struct {
	TrajectoryKey
	Period uint64        `json:"period"`
	Start  uint64        `json:"start"`
	Rows   [][]alg.State `json:"rows"`
	Agree  []bool        `json:"agree"`
	Common []int         `json:"common"`
}

// cycle validates a loaded line as outside input and converts it.
func (in *memoFileCycle) cycle() (TrajectoryCycle, error) {
	L := len(in.Agree)
	switch {
	case in.Period == 0 || in.Start >= in.Period:
		return TrajectoryCycle{}, fmt.Errorf("start phase %d outside period %d", in.Start, in.Period)
	case L == 0 || len(in.Common) != L:
		return TrajectoryCycle{}, fmt.Errorf("malformed observation ring (%d agree, %d common)", L, len(in.Common))
	case len(in.Rows) == 0 || len(in.Rows) > L:
		return TrajectoryCycle{}, fmt.Errorf("%d configuration rows for a cycle of length %d", len(in.Rows), L)
	}
	for j, row := range in.Rows {
		if len(row) != len(in.Rows[0]) {
			return TrajectoryCycle{}, fmt.Errorf("configuration row %d has %d words, row 0 has %d", j, len(row), len(in.Rows[0]))
		}
	}
	ring := make([]TrajectoryObs, L)
	for i := range ring {
		ring[i] = TrajectoryObs{Agree: in.Agree[i], Common: in.Common[i]}
	}
	return TrajectoryCycle{Key: in.TrajectoryKey, Period: in.Period, Start: in.Start, Rows: in.Rows, Ring: ring}, nil
}

// Save writes every stored cycle as newline-delimited JSON: a schema
// header line, then one line per cycle in a deterministic order.
// Cycles are facts about deterministic dynamics, so a saved memo
// loaded by a later process — or another machine running the same
// campaign — yields bit-identical results to rediscovering them.
func (m *TrajectoryMemo) Save(w io.Writer) error {
	m.mu.RLock()
	cycles := slices.Clone(m.cycles)
	m.mu.RUnlock()
	// Insertion order follows trial scheduling; a cycle's dynamics are
	// fixed by its key, phase and first row, so this order separates
	// any two stored cycles.
	slices.SortFunc(cycles, func(a, b TrajectoryCycle) int {
		return cmp.Or(
			cmp.Compare(a.Key.Alg, b.Key.Alg),
			cmp.Compare(a.Key.Faulty, b.Key.Faulty),
			cmp.Compare(a.Key.Adversary, b.Key.Adversary),
			cmp.Compare(a.Period, b.Period),
			cmp.Compare(a.Start, b.Start),
			slices.Compare(a.Rows[0], b.Rows[0]),
			cmp.Compare(len(a.Rows), len(b.Rows)),
		)
	})
	enc := json.NewEncoder(w)
	if err := enc.Encode(memoFileHeader{Schema: memoFileSchema}); err != nil {
		return err
	}
	for _, c := range cycles {
		L := len(c.Ring) / 2
		out := memoFileCycle{
			TrajectoryKey: c.Key, Period: c.Period, Start: c.Start, Rows: c.Rows,
			Agree: make([]bool, L), Common: make([]int, L),
		}
		for i, o := range c.Ring[:L] {
			out.Agree[i], out.Common[i] = o.Agree, o.Common
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a stream written by Save and adds its cycles to the memo
// (first write wins, the capacity applies — a file larger than the
// memo loads a prefix). It returns how many configurations it indexed.
// The schema header must match, and every cycle line is validated as
// outside input; a malformed one fails loudly, naming its line (Save
// writes one JSON value per line).
func (m *TrajectoryMemo) Load(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	var hdr memoFileHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, fmt.Errorf("harness: memo load: header: %w", err)
	}
	if hdr.Schema != memoFileSchema {
		return 0, fmt.Errorf("harness: memo load: schema %q, want %q", hdr.Schema, memoFileSchema)
	}
	loaded := 0
	for line := 2; ; line++ {
		var in memoFileCycle
		if err := dec.Decode(&in); err != nil {
			if errors.Is(err, io.EOF) {
				return loaded, nil
			}
			return loaded, fmt.Errorf("harness: memo load: line %d: %w", line, err)
		}
		c, err := in.cycle()
		if err != nil {
			return loaded, fmt.Errorf("harness: memo load: line %d: %w", line, err)
		}
		loaded += m.Add(c)
	}
}

// SaveFile writes the memo to path atomically (temp file plus rename),
// so an interrupted save never destroys the previous memo file.
func (m *TrajectoryMemo) SaveFile(path string) error {
	return AtomicWriteFile(path, m.Save)
}

// LoadFile loads a memo file written by SaveFile. A missing file is
// the caller's decision to handle (os.IsNotExist): first runs start
// cold.
func (m *TrajectoryMemo) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := m.Load(f)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}

// Package sweep is the experiment-matrix subsystem: it owns the
// declarative definitions of every evaluation scenario in the repository
// (the eight Table 1 rows, the exhaustive-exploration model check, the
// Theorem 10 certificate hunt, and the lower-bound checker modes), expands
// a grid spec — rows × n × k × engine options — into cells, executes the
// cells concurrently with bounded parallelism and per-cell timeouts, and
// streams one machine-readable JSON Lines record per cell. cmd/sweep is
// the CLI; cmd/table1, cmd/lbcheck and the benchmark harness drive their
// scenarios through the same definitions, so an experiment is specified in
// exactly one place.
package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/lowerbound"
)

// EngineSpec selects frontier-engine options for one grid axis point. The
// zero value means "each scenario's default": all cores, fingerprint keying for exploration and exact string keying for
// certificate searches (the same asymmetry as the mcheck/lbcheck flag
// defaults).
type EngineSpec struct {
	// Workers is the engine worker-goroutine count (0 = all cores).
	Workers int `json:"workers,omitempty"`
	// Keys is the visited-set keying: "" (scenario default),
	// "fingerprint", or "string".
	Keys string `json:"keys,omitempty"`
	// Store is the state-store backend: "" (mem), "mem", or "spill" (the
	// disk-spilling store for beyond-RAM instances).
	Store string `json:"store,omitempty"`
	// MemBudget is the spill store's resident-memory budget as a human
	// byte size ("64MB", "1GiB"; "" = the 256MiB default).
	MemBudget string `json:"mem_budget,omitempty"`
	// Reduce selects the state-space reduction for exploration scenarios:
	// "" or "none", or "sym" (process-symmetry quotient); "sym+sleep" is
	// a deprecated synonym of "sym" (see Canonical). Certificate searches
	// always run unreduced — reductions merge schedules, so witness
	// extraction rejects them — and ignore this axis.
	Reduce string `json:"reduce,omitempty"`
	// Order selects the exploration order for exploration scenarios:
	// "" or "levelsync" (the BFS level barrier), "async" (barrier-free
	// work stealing). Certificate searches always run level-synchronized
	// — witness extraction needs provenance chains, which async cannot
	// maintain — and ignore this axis the same way they ignore Reduce.
	Order string `json:"order,omitempty"`
	// Peers, when positive, runs exploration scenarios distributed over
	// that many loopback peer processes (in-process engines behind the
	// real coordinator/peer wire protocol): the frontier shards across
	// peers by fingerprint partition, and the verdict is identical to
	// the single-process run. Certificate searches ignore this axis like
	// Reduce and Order.
	Peers int `json:"peers,omitempty"`
}

// Canonical returns e with its deprecated spellings replaced: Reduce
// "sym+sleep" (check.ReduceSymSleep) becomes "sym", the run it has always
// been equal to. Cell IDs and the serving layer's cache keys are taken
// from the canonical spec, so the two spellings name one cell and one
// cache slot, and no slot written under the retired spelling is looked up
// again.
func (e EngineSpec) Canonical() EngineSpec {
	if e.Reduce == check.ReduceSymSleep {
		e.Reduce = check.ReduceSym
	}
	return e
}

// label is the engine's contribution to a cell ID. Cells on the default
// store keep the historical three-part label — the literal "s0" is where
// a partition-count axis once sat, always at its default — so cell IDs in
// existing sweep resume files and cache journals stay valid.
func (e EngineSpec) label() string {
	e = e.Canonical()
	keys := e.Keys
	if keys == "" {
		keys = "default"
	}
	l := fmt.Sprintf("w%d-s0-%s", e.Workers, keys)
	if e.Store != "" && e.Store != check.StoreMem {
		l += "-" + e.Store
		if e.MemBudget != "" {
			l += "@" + e.MemBudget
		}
	}
	if e.Reduce != "" && e.Reduce != check.ReduceNone {
		l += "-" + e.Reduce
	}
	if e.Order != "" && e.Order != check.OrderLevelSync {
		l += "-" + e.Order
	}
	if e.Peers > 0 {
		l += fmt.Sprintf("-dist%d", e.Peers)
	}
	return l
}

// validate rejects unknown backends, unparsable budgets and incompatible
// axis combinations (the engine's check.ModeConflicts table owns every
// cross-axis rule) so a typo'd spec fails before any cell runs.
func (e EngineSpec) validate() error {
	switch e.Store {
	case "", check.StoreMem, check.StoreSpill:
	default:
		return fmt.Errorf("sweep: unknown store %q (have %q, %q)", e.Store, check.StoreMem, check.StoreSpill)
	}
	if _, err := harness.ParseByteSize(e.MemBudget); err != nil {
		return fmt.Errorf("sweep: mem_budget: %w", err)
	}
	if e.MemBudget != "" && e.Store != check.StoreSpill {
		return fmt.Errorf("sweep: mem_budget %q requires store %q (the in-memory store is unbudgeted)", e.MemBudget, check.StoreSpill)
	}
	if e.Peers < 0 || e.Peers > check.DistNumParts {
		return fmt.Errorf("sweep: peers %d outside [0, %d]", e.Peers, check.DistNumParts)
	}
	modes := check.Modes{Order: e.Order, Reduction: e.Reduce, Store: e.Store, StringKeys: e.Keys == "string", Dist: e.Peers > 0}
	if err := modes.Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// Validate is the exported form of the spec check, for callers that
// accept EngineSpec values from outside a Grid (the serving daemon's
// request decoding).
func (e EngineSpec) Validate() error { return e.validate() }

// MemBudgetBytes returns the parsed resident-memory budget in bytes
// (0 when unset). Validate first; an unparsable budget reads as 0 here.
func (e EngineSpec) MemBudgetBytes() int64 { return e.memBudgetBytes() }

// memBudgetBytes returns the parsed budget; specs are validated when the
// grid expands, so a parse failure here cannot occur.
func (e EngineSpec) memBudgetBytes() int64 {
	b, _ := harness.ParseByteSize(e.MemBudget)
	return b
}

// Grid is a declarative experiment matrix. Expanding it yields one cell
// per (row, n, k, engine) combination with n > k; cells inherit the
// grid-level validation and budget settings.
type Grid struct {
	// Name identifies the grid in results (e.g. "default", "small").
	Name string `json:"name,omitempty"`
	// Rows lists row keys in render order (empty = the Table 1 rows).
	Rows []string `json:"rows,omitempty"`
	// Ns and Ks are the process-count and agreement-parameter axes
	// (empty = {8} and {2}, the cmd/table1 defaults).
	Ns []int `json:"ns,omitempty"`
	Ks []int `json:"ks,omitempty"`
	// Engines is the engine-option axis (empty = one default engine).
	Engines []EngineSpec `json:"engines,omitempty"`
	// Schedules and Seed configure adversarial-schedule validation
	// (0 = the harness defaults: 25 schedules, seed as given).
	Schedules int   `json:"schedules,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	// MaxConfigs and MaxDepth override each scenario's default search
	// budget when positive.
	MaxConfigs int `json:"max_configs,omitempty"`
	MaxDepth   int `json:"max_depth,omitempty"`
	// TimeoutSec bounds each cell's wall time (0 = no timeout).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// ParseGrid decodes a JSON grid spec, rejecting unknown fields and row
// keys so a typo in a spec file fails loudly rather than silently
// shrinking the matrix.
func ParseGrid(data []byte) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parse grid: %w", err)
	}
	for _, key := range g.Rows {
		if _, ok := RowByKey(key); !ok {
			return Grid{}, fmt.Errorf("sweep: parse grid: unknown row %q (have %v)", key, RowKeys())
		}
	}
	for _, e := range g.Engines {
		if err := e.validate(); err != nil {
			return Grid{}, fmt.Errorf("parse grid: %w", err)
		}
	}
	return g, nil
}

// NamedGrid returns a built-in grid. The names:
//
//	default  the full Table 1 at n=8, k=2 — cmd/table1's exact output
//	small    Table 1 plus exploration cells (Algorithm 1 and the
//	         symmetric toy-bit control) at n=4, k=2 with small budgets,
//	         swept across the reduce axis; the CI bench-smoke grid
//	engine   the exploration scenario across a workers × keying matrix
func NamedGrid(name string) (Grid, error) {
	switch name {
	case "default":
		// Seed 1 matches cmd/table1's -seed default: the byte-for-byte
		// contract must hold for the schedules actually validated, not
		// just the rendering.
		return Grid{Name: "default", Seed: 1}, nil
	case "small":
		rows := append(append([]string{}, TableRowKeys()...), "explore", "explore-anon")
		return Grid{
			Name: "small", Rows: rows,
			Ns: []int{4}, Ks: []int{2},
			// The reduce axis: every row runs unreduced and quotiented
			// (certificate rows ignore the axis by construction, so the
			// extra cells mostly re-validate cheaply; the exploration
			// rows are the ones the axis is for, and the symmetric
			// explore-anon control must show states_pruned > 0 under
			// sym — the CI sanity gate).
			Engines:   []EngineSpec{{}, {Reduce: check.ReduceSym}},
			Schedules: 2, Seed: 1,
			MaxConfigs: 20000, TimeoutSec: 120,
		}, nil
	case "engine":
		var engines []EngineSpec
		for _, w := range []int{1, 2, 4} {
			for _, keys := range []string{"fingerprint", "string"} {
				engines = append(engines, EngineSpec{Workers: w, Keys: keys})
			}
		}
		return Grid{
			Name: "engine", Rows: []string{"explore"},
			Ns: []int{4}, Ks: []int{1},
			Engines: engines, MaxConfigs: 20000, TimeoutSec: 120,
		}, nil
	default:
		return Grid{}, fmt.Errorf("sweep: unknown grid %q (have default, small, engine)", name)
	}
}

// Cell is one point of an expanded grid: a scenario instance ready to run.
type Cell struct {
	// Grid is the owning grid's name (results provenance only).
	Grid string
	// Row is the RowSpec key.
	Row string
	// N and K are the instance parameters (N > K >= 1).
	N, K int
	// Inputs optionally overrides the scenario's default input assignment
	// for rows that model-check one concrete instance (RowSpec.Instance
	// non-nil; other rows reject it). Length must be N. Inputs are
	// identity-relevant: cells differing only here have different IDs.
	Inputs []int
	// Engine selects frontier-engine options.
	Engine EngineSpec
	// Schedules and Seed configure validation (0 = harness defaults).
	Schedules int
	Seed      int64
	// MaxConfigs and MaxDepth override the scenario's search budget when
	// positive.
	MaxConfigs, MaxDepth int
	// Timeout bounds the cell's wall time (0 = none).
	Timeout time.Duration
	// Ctx, when non-nil, cancels the cell's engine runs in-process (the
	// serving daemon's per-cell timeouts and shutdown drain). The runner
	// sets it; grid specs never carry one.
	Ctx context.Context
	// Progress, when non-nil, receives engine progress reports from the
	// cell's exploration or search — the hook the daemon's /status
	// streaming rides on. Nil for ordinary grid runs.
	Progress func(check.Progress)
	// CheckpointDir, when set, gives the cell's exploration a directory
	// for crash-safe level-barrier snapshots: a killed run resumes
	// mid-cell from the last snapshot. Runtime plumbing (the runner
	// derives it from RunOptions.CheckpointDir), never identity — the
	// same cell with or without a checkpoint directory is the same
	// experiment. Certificate searches ignore it (their provenance
	// chains are in-RAM only), and so do async-order explorations.
	CheckpointDir string
}

// ID is the cell's stable identity, used for checkpoint resume: a cell
// re-expanded from the same grid axes maps to the same ID across runs.
// Explicit inputs are part of the identity (distinct input assignments
// are distinct experiments); Ctx and Progress are runtime plumbing, not
// identity.
func (c Cell) ID() string {
	id := fmt.Sprintf("%s/n=%d/k=%d/%s", c.Row, c.N, c.K, c.Engine.label())
	if len(c.Inputs) > 0 {
		parts := make([]string, len(c.Inputs))
		for i, v := range c.Inputs {
			parts[i] = strconv.Itoa(v)
		}
		id += "/in=" + strings.Join(parts, ",")
	}
	return id
}

// ValidateOptions translates the cell into harness validation options.
func (c Cell) ValidateOptions() harness.ValidateOptions {
	return harness.ValidateOptions{Schedules: c.Schedules, Seed: c.Seed}
}

// SearchLimits translates the cell into lower-bound search limits, using
// the scenario's default budget where the cell does not override it.
// Certificate searches default to exact string keys; Keys "fingerprint"
// opts into fingerprint dedup. The Reduce and Order axes have no
// counterpart in the limits: the searches behind them extract witness
// schedules from provenance chains, which every reduction is unsound for
// and the async order cannot maintain, so a grid may sweep either axis
// without breaking its certificate rows.
func (c Cell) SearchLimits(defConfigs, defDepth int) lowerbound.SearchLimits {
	if c.MaxConfigs > 0 {
		defConfigs = c.MaxConfigs
	}
	if c.MaxDepth > 0 {
		defDepth = c.MaxDepth
	}
	return lowerbound.SearchLimits{
		Ctx:        c.Ctx,
		MaxConfigs: defConfigs, MaxDepth: defDepth,
		Workers:      c.Engine.Workers,
		Fingerprints: c.Engine.Keys == "fingerprint",
		Store:        c.Engine.Store, MemBudget: c.Engine.memBudgetBytes(),
		Progress: c.Progress,
	}
}

// ExploreOptions translates the cell into explorer options. Exploration
// defaults to fingerprint dedup; Keys "string" opts into exact keys. An
// async-order cell runs without its CheckpointDir: the order has no
// barrier to snapshot at (check.ModeConflicts), and a rerun from scratch
// reaches the same verdict.
func (c Cell) ExploreOptions() check.ExploreOptions {
	ckpt := c.CheckpointDir
	if c.Engine.Order == check.OrderAsync {
		ckpt = ""
	}
	return check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: c.MaxConfigs, MaxDepth: c.MaxDepth},
		Engine: check.EngineOptions{
			Ctx:        c.Ctx,
			Workers:    c.Engine.Workers,
			StringKeys: c.Engine.Keys == "string",
			Store:      c.Engine.Store, MemBudget: c.Engine.memBudgetBytes(),
			Reduction: c.Engine.Reduce, Order: c.Engine.Order,
			Progress:   c.Progress,
			Checkpoint: ckpt,
		},
	}
}

// Cells expands the grid into its cell list: n outer, then k, then rows,
// then engines — the order the human table renders in. Scenarios whose
// applicability predicate rejects an (n, k) point are skipped, as are
// points with n <= k.
func (g Grid) Cells() ([]Cell, error) {
	rows := g.Rows
	if len(rows) == 0 {
		rows = TableRowKeys()
	}
	ns := g.Ns
	if len(ns) == 0 {
		ns = []int{8}
	}
	ks := g.Ks
	if len(ks) == 0 {
		ks = []int{2}
	}
	engines := g.Engines
	if len(engines) == 0 {
		engines = []EngineSpec{{}}
	}
	for _, e := range engines {
		if err := e.validate(); err != nil {
			return nil, err
		}
	}

	var cells []Cell
	for _, n := range ns {
		for _, k := range ks {
			if n <= k || k < 1 {
				continue
			}
			for _, key := range rows {
				spec, ok := RowByKey(key)
				if !ok {
					return nil, fmt.Errorf("sweep: unknown row %q (have %v)", key, RowKeys())
				}
				if spec.Applies != nil && !spec.Applies(n, k) {
					continue
				}
				for _, e := range engines {
					cells = append(cells, Cell{
						Grid: g.Name, Row: key, N: n, K: k, Engine: e,
						Schedules: g.Schedules, Seed: g.Seed,
						MaxConfigs: g.MaxConfigs, MaxDepth: g.MaxDepth,
						Timeout: time.Duration(g.TimeoutSec) * time.Second,
					})
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: grid %q expands to no cells (need some n > k >= 1)", g.Name)
	}
	return cells, nil
}

// RowKeys lists every registered scenario key, sorted.
func RowKeys() []string {
	keys := make([]string, 0, len(rowOrder))
	keys = append(keys, rowOrder...)
	sort.Strings(keys)
	return keys
}

package sweep

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// Outcome is the machine-readable result of running one cell's scenario.
type Outcome struct {
	// Table is the row for the human Table 1 rendering (nil for scenarios
	// outside the table, e.g. "explore").
	Table *harness.Row
	// Measured and Certified are object counts (-1 = not applicable).
	Measured, Certified int
	// Bound is the paper's lower bound for certificate scenarios (0 when
	// the scenario certifies nothing).
	Bound int
	// States is the number of distinct configurations explored (0 for
	// schedule-validation scenarios, which do not enumerate the space).
	States int
	// Decided is the decided-value set witnessed by an exploration.
	Decided []int
	// Complete reports whether an exploration exhausted its space.
	Complete bool
	// Violation is a replayable witness schedule when the scenario found
	// an agreement violation.
	Violation *lowerbound.Witness
	// Violated records that a violation was detected even when no
	// replayable witness could be extracted (e.g. the re-derivation
	// search exhausted its budget); it forces the "violation" status.
	Violated bool
	// Failed is a non-empty diagnosis when validation or certification
	// fell short without erroring (e.g. a certificate below the bound).
	Failed string
	// Store, when the scenario ran the frontier engine's exploration
	// path, reports the state store's activity (spill volume, peak
	// resident bytes) for the JSONL record.
	Store *check.StoreStats
	// Reduction, when the scenario ran the explorer, reports the
	// reduction layer's activity (orbit folds). It is set
	// unconditionally — violation rows included — so a reduced run that
	// finds a violation is just as auditable as a clean one.
	Reduction *check.ReductionStats
	// Async, when the scenario ran the explorer, reports the exploration
	// order that executed and the async order's work-stealing and
	// quiescence activity. Like Reduction it is set unconditionally on
	// explorer outcomes, violation rows included.
	Async *check.AsyncStats
	// Net, when the scenario ran the explorer, reports distributed wire
	// activity (peer count, batches and bytes sent). Set unconditionally
	// on explorer outcomes — violation rows included — and zero-valued
	// for single-process cells.
	Net *check.NetStats
}

// RowSpec is one declarative experiment scenario: the unit shared by
// cmd/sweep, cmd/table1 and the benchmark harness.
type RowSpec struct {
	// Key is the stable scenario identity used in grids and cell IDs.
	Key string
	// Doc is a one-line description.
	Doc string
	// Applies filters (n, k) points (nil = every n > k >= 1).
	Applies func(n, k int) bool
	// ExpectViolation marks scenarios whose success criterion is finding
	// a violation (negative controls); for them a found witness is status
	// "ok" and an empty-handed search is a failure.
	ExpectViolation bool
	// Instance, when non-nil, builds the concrete model-checking instance
	// — protocol plus initial input assignment — that Run explores for a
	// cell. Declaring it is what lets a cell carry explicit Inputs and
	// what gives the cell an instance fingerprint (the serving daemon's
	// cache key); rows without it reject explicit inputs.
	Instance func(cell Cell) (model.Protocol, []int, error)
	// Run executes the scenario for one cell.
	Run func(cell Cell) (*Outcome, error)
}

// rejectStrayInputs fails cells that carry explicit inputs into a row
// that cannot honor them: silently ignoring Inputs would record — and,
// in the serving layer, cache-key — an instance that was never run.
func rejectStrayInputs(spec RowSpec, cell Cell) error {
	if len(cell.Inputs) > 0 && spec.Instance == nil {
		return fmt.Errorf("sweep: row %q does not take explicit inputs", cell.Row)
	}
	return nil
}

// instanceInputs returns the cell's input assignment over value domain
// [0, m): the explicit Inputs when set (validated for length and
// domain), else the default round-robin assignment i mod m that the
// mcheck CLI also defaults to.
func instanceInputs(cell Cell, m int) ([]int, error) {
	if len(cell.Inputs) == 0 {
		inputs := make([]int, cell.N)
		for i := range inputs {
			inputs[i] = i % m
		}
		return inputs, nil
	}
	if len(cell.Inputs) != cell.N {
		return nil, fmt.Errorf("sweep: row %q: %d inputs for n=%d processes", cell.Row, len(cell.Inputs), cell.N)
	}
	for i, v := range cell.Inputs {
		if v < 0 || v >= m {
			return nil, fmt.Errorf("sweep: row %q: input[%d] = %d outside value domain [0,%d)", cell.Row, i, v, m)
		}
	}
	return append([]int(nil), cell.Inputs...), nil
}

// exploreInstance is the "explore" row's instance: Algorithm 1 at
// (n, k) with m = k+1 input values — exactly what `mcheck -proto
// algorithm1` builds from the same parameters.
func exploreInstance(cell Cell) (model.Protocol, []int, error) {
	p, err := core.New(core.Params{N: cell.N, K: cell.K, M: cell.K + 1})
	if err != nil {
		return nil, nil, err
	}
	inputs, err := instanceInputs(cell, cell.K+1)
	if err != nil {
		return nil, nil, err
	}
	return p, inputs, nil
}

// exploreAnonInstance is the "explore-anon" row's instance: the binary
// anonymous toy-bit race, the registry's process-symmetric protocol.
func exploreAnonInstance(cell Cell) (model.Protocol, []int, error) {
	p, err := baseline.NewToyBitRace(cell.N, 2)
	if err != nil {
		return nil, nil, err
	}
	inputs, err := instanceInputs(cell, 2)
	if err != nil {
		return nil, nil, err
	}
	return p, inputs, nil
}

// InstanceFingerprint returns the orbit-canonical fingerprint of the
// cell's initial configuration, with ok reporting whether the cell's
// row model-checks a concrete instance at all (certificate and
// validation rows do not, and get no fingerprint). For protocols that
// declare process symmetry the fingerprint is invariant under permuting
// the initial states within a symmetry class — process-permuted
// resubmissions of one instance share it — while protocols without
// declared symmetry fall back to the positional slot fingerprint, so
// the value is well-defined either way. This is the instance component
// of the serving daemon's result-cache key.
func (c Cell) InstanceFingerprint() (uint64, bool, error) {
	spec, okRow := RowByKey(c.Row)
	if !okRow || spec.Instance == nil {
		return 0, false, nil
	}
	p, inputs, err := spec.Instance(c)
	if err != nil {
		return 0, false, err
	}
	cfg, err := model.NewConfig(p, inputs)
	if err != nil {
		return 0, false, err
	}
	return cfg.CanonicalSlotFingerprint(model.SymmetryClasses(p)), true, nil
}

// rowOrder fixes registry iteration order; the first eight keys are the
// paper's Table 1 rows in the paper's order.
var rowOrder = []string{
	"consensus-registers",
	"consensus-swap",
	"consensus-readable-b2",
	"consensus-readable-bb",
	"consensus-readable-unbounded",
	"kset-registers",
	"kset-swap",
	"kset-readable",
	"explore",
	"explore-anon",
	"theorem10",
	"violation-hunt",
}

// TableRowKeys returns the eight Table 1 row keys in the paper's order.
func TableRowKeys() []string {
	return append([]string{}, rowOrder[:8]...)
}

// RowByKey resolves a scenario key.
func RowByKey(key string) (RowSpec, bool) {
	spec, ok := rowRegistry[key]
	return spec, ok
}

var rowRegistry = map[string]RowSpec{
	"consensus-registers": {
		Key: "consensus-registers",
		Doc: "Table 1: Consensus / Registers — cited; the racing-counters model of the bound's algorithm is refuted (LB n [16], UB n [3,12])",
		Run: func(cell Cell) (*Outcome, error) {
			return refutedOutcome(harness.Row{
				Task: "Consensus", Objects: "Registers",
				PaperLB: fmt.Sprintf("n = %d [16]", lowerbound.EGZRegisterBound(cell.N)),
				PaperUB: fmt.Sprintf("n = %d [3,12]", cell.N),
			}, "racing counters violate agreement (n=3, inputs 0,1,1: a 21-step schedule)"), nil
		},
	},

	"consensus-swap": {
		Key: "consensus-swap",
		Doc: "Table 1: Consensus / Swap — validate Algorithm 1 and certify Lemma 9 (LB n-1 [Thm 10], UB n-1 [Alg 1])",
		Run: func(cell Cell) (*Outcome, error) {
			a1, err := core.New(core.Params{N: cell.N, K: 1, M: 2})
			if err != nil {
				return nil, err
			}
			out, status := validateOutcome(a1, 1, cell)
			out.Bound = lowerbound.Theorem10Bound(cell.N, 1)
			cert, err := lowerbound.ConsensusCertificate(a1, 0)
			if err == nil {
				out.Certified = len(cert.Objects)
			} else {
				status += "; certificate FAILED: " + err.Error()
				out.Failed = appendFailure(out.Failed, "certificate FAILED: "+err.Error())
			}
			out.Table = &harness.Row{
				Task: "Consensus", Objects: "Swap objects",
				PaperLB:  fmt.Sprintf("n-1 = %d [Thm 10]", out.Bound),
				PaperUB:  fmt.Sprintf("n-1 = %d [Alg 1]", lowerbound.Algorithm1Objects(cell.N, 1)),
				Measured: out.Measured, Certified: out.Certified, Status: status,
			}
			return out, nil
		},
	},

	"consensus-readable-b2": {
		Key: "consensus-readable-b2",
		Doc: "Table 1: Consensus / Readable swap, domain 2 — LB machinery row (LB n-2 [Thm 18], UB 2n-1 [7], cited)",
		Run: func(cell Cell) (*Outcome, error) {
			return &Outcome{
				Measured: -1, Certified: -1,
				Table: &harness.Row{
					Task: "Consensus", Objects: "Readable swap, domain 2",
					PaperLB:  fmt.Sprintf("n-2 = %d [Thm 18]", lowerbound.Theorem18Bound(cell.N)),
					PaperUB:  fmt.Sprintf("2n-1 = %d [7]", lowerbound.BowmanObjects(cell.N)),
					Measured: -1, Certified: -1,
					Status: "LB machinery: covering + ledger (cmd/lbcheck); UB cited (report unavailable)",
				},
			}, nil
		},
	},

	"consensus-readable-bb": {
		Key: "consensus-readable-bb",
		Doc: "Table 1: Consensus / Readable swap, domain b — Theorem 22 bound arithmetic (LB (n-2)/(3b+1), UB 2n-1 [7])",
		Run: func(cell Cell) (*Outcome, error) {
			var capNotes []string
			for _, b := range []int{2, 3, 4, 8} {
				capNotes = append(capNotes, fmt.Sprintf("b=%d:⌈(n-2)/(3b+1)⌉=%d", b, lowerbound.Theorem22Bound(cell.N, b)))
			}
			return &Outcome{
				Measured: -1, Certified: -1,
				Table: &harness.Row{
					Task: "Consensus", Objects: "Readable swap, domain b",
					PaperLB:  "(n-2)/(3b+1) [Thm 22]",
					PaperUB:  fmt.Sprintf("2n-1 = %d [7]", lowerbound.BowmanObjects(cell.N)),
					Measured: -1, Certified: -1,
					Status: strings.Join(capNotes, " "),
				},
			}, nil
		},
	},

	"consensus-readable-unbounded": {
		Key: "consensus-readable-unbounded",
		Doc: "Table 1: Consensus / Readable swap, unbounded — validate the EGSZ readable race (LB Ω(√n) [17], UB n-1 [15])",
		Run: func(cell Cell) (*Outcome, error) {
			rr, err := baseline.NewReadableRace(cell.N, 2)
			if err != nil {
				return nil, err
			}
			out, status := validateOutcome(rr, 1, cell)
			out.Table = &harness.Row{
				Task: "Consensus", Objects: "Readable swap, unbounded",
				PaperLB:  "Ω(√n) [17]",
				PaperUB:  fmt.Sprintf("n-1 = %d [15]", lowerbound.EGSZObjects(cell.N)),
				Measured: out.Measured, Certified: -1, Status: status,
			}
			return out, nil
		},
	},

	"kset-registers": {
		Key: "kset-registers",
		Doc: "Table 1: k-set / Registers — cited; the register k-set model of the bound's algorithm is refuted (LB ⌈n/k⌉ [16], UB n-k+1 [6])",
		Run: func(cell Cell) (*Outcome, error) {
			return refutedOutcome(harness.Row{
				Task: fmt.Sprintf("%d-set agreement", cell.K), Objects: "Registers",
				PaperLB: fmt.Sprintf("⌈n/k⌉ = %d [16]", lowerbound.EGZRegisterKSetBound(cell.N, cell.K)),
				PaperUB: fmt.Sprintf("n-k+1 = %d [6]", lowerbound.RegisterKSetObjects(cell.N, cell.K)),
			}, "register k-set violates 2-set agreement (n=4, inputs 0,1,2,0: a 29-step schedule)"), nil
		},
	},

	"kset-swap": {
		Key: "kset-swap",
		Doc: "Table 1: k-set / Swap — validate Algorithm 1 and certify Theorem 10 (LB ⌈n/k⌉-1 [Thm 10], UB n-k [Alg 1])",
		Run: func(cell Cell) (*Outcome, error) {
			aks, err := core.New(core.Params{N: cell.N, K: cell.K, M: cell.K + 1})
			if err != nil {
				return nil, err
			}
			out, status := validateOutcome(aks, cell.K, cell)
			out.Bound = lowerbound.Theorem10Bound(cell.N, cell.K)
			t10, err := lowerbound.Theorem10Driver(aks, cell.K, cell.SearchLimits(40000, 40), 0)
			if err == nil {
				out.Certified = t10.Objects
			} else {
				status += "; certificate FAILED: " + err.Error()
				out.Failed = appendFailure(out.Failed, "certificate FAILED: "+err.Error())
			}
			out.Table = &harness.Row{
				Task: fmt.Sprintf("%d-set agreement", cell.K), Objects: "Swap objects",
				PaperLB:  fmt.Sprintf("⌈n/k⌉-1 = %d [Thm 10]", out.Bound),
				PaperUB:  fmt.Sprintf("n-k = %d [Alg 1]", lowerbound.Algorithm1Objects(cell.N, cell.K)),
				Measured: out.Measured, Certified: out.Certified, Status: status,
			}
			return out, nil
		},
	},

	"kset-readable": {
		Key: "kset-readable",
		Doc: "Table 1: k-set / Readable swap, unbounded — validate Algorithm 1 over readable swaps (LB 1, UB n-k [Alg 1])",
		Run: func(cell Cell) (*Outcome, error) {
			akr, err := core.New(core.Params{N: cell.N, K: cell.K, M: cell.K + 1, Readable: true})
			if err != nil {
				return nil, err
			}
			out, status := validateOutcome(akr, cell.K, cell)
			out.Table = &harness.Row{
				Task: fmt.Sprintf("%d-set agreement", cell.K), Objects: "Readable swap, unbounded",
				PaperLB:  "1",
				PaperUB:  fmt.Sprintf("n-k = %d [Alg 1]", lowerbound.Algorithm1Objects(cell.N, cell.K)),
				Measured: out.Measured, Certified: -1, Status: status,
			}
			return out, nil
		},
	},

	"explore": {
		Key:      "explore",
		Doc:      "Model check Algorithm 1: explore the reachable space, verify k-agreement, report coverage and throughput",
		Instance: exploreInstance,
		Run: func(cell Cell) (*Outcome, error) {
			p, inputs, err := exploreInstance(cell)
			if err != nil {
				return nil, err
			}
			return exploreOutcome(p, inputs, cell.K, cell)
		},
	},

	"explore-anon": {
		Key: "explore-anon",
		Doc: "Model check the anonymous toy-bit race: a process-symmetric negative control exercising the -reduce axis (violations expected)",
		// The race is binary, so cell.K is ignored (any two decided
		// values violate consensus); n >= 3 guarantees an adversarial
		// schedule that splits decisions exists within small budgets.
		Applies:         func(n, k int) bool { return n >= 3 },
		ExpectViolation: true,
		Instance:        exploreAnonInstance,
		Run: func(cell Cell) (*Outcome, error) {
			p, inputs, err := exploreAnonInstance(cell)
			if err != nil {
				return nil, err
			}
			return exploreOutcome(p, inputs, 1, cell)
		},
	},

	"theorem10": {
		Key:     "theorem10",
		Doc:     "Certify the Theorem 10 lower bound for Algorithm 1 at (n, k)",
		Applies: func(n, k int) bool { return n >= 3 },
		Run: func(cell Cell) (*Outcome, error) {
			mode, _ := LBModeByKey("theorem10")
			p, _, err := mode.Build(cell.N, cell.K)
			if err != nil {
				return nil, err
			}
			cert, err := lowerbound.Theorem10Driver(p, cell.K, cell.SearchLimits(mode.MaxConfigs, mode.MaxDepth), 0)
			if err != nil {
				return nil, err
			}
			out := &Outcome{
				Measured: -1, Certified: cert.Objects,
				Bound: lowerbound.Theorem10Bound(cell.N, cell.K),
			}
			if cert.Objects < out.Bound {
				out.Failed = fmt.Sprintf("certified %d short of bound %d", cert.Objects, out.Bound)
			}
			return out, nil
		},
	},

	"violation-hunt": {
		Key: "violation-hunt",
		Doc: "Negative control: find the 3-process violation of the 2-process pair consensus",
		// The construction is fixed at 3 processes and k=1; pinning the
		// point keeps grids from recording phantom cells at other (n, k)
		// that would all silently run the same instance.
		Applies:         func(n, k int) bool { return n == 3 && k == 1 },
		ExpectViolation: true,
		Run: func(cell Cell) (*Outcome, error) {
			mode, _ := LBModeByKey("counterexample")
			p, inputs, err := mode.Build(cell.N, cell.K)
			if err != nil {
				return nil, err
			}
			w, err := lowerbound.FindAgreementViolation(p, inputs, 1, cell.SearchLimits(mode.MaxConfigs, mode.MaxDepth))
			if err != nil {
				return nil, err
			}
			out := &Outcome{Measured: -1, Certified: -1, Violation: w}
			if w != nil {
				out.States = w.Visited
			} else {
				out.Failed = "no violation found (one must exist)"
			}
			return out, nil
		},
	},
}

// exploreOutcome is the shared body of the model-checking rows: explore
// the all-pids space of p from inputs under the cell's engine options
// and package the result. Store and reduction statistics are attached
// before the violation branch, so violation rows carry them too — a
// reduced run that finds a violation must be as auditable as a clean
// one.
func exploreOutcome(p model.Protocol, inputs []int, k int, cell Cell) (*Outcome, error) {
	c, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	pids := make([]int, p.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	var res *check.ExploreResult
	if cell.Engine.Peers > 0 {
		// Distributed cell: the same exploration sharded over loopback
		// peer engines behind the real coordinator/peer wire protocol.
		ctx := cell.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		res, err = dist.LoopbackExplore(ctx, p, inputs, k, cell.ExploreOptions(), cell.Engine.Peers)
	} else {
		res, err = check.ExploreOpts(p, c, pids, k, cell.ExploreOptions())
	}
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Measured: -1, Certified: -1,
		States: res.Visited, Decided: res.DecidedValues, Complete: res.Complete,
		Store: &res.Store, Reduction: &res.Reduction, Async: &res.Async, Net: &res.Net,
	}
	if res.AgreementViolation != nil {
		out.Violated = true
		out.Failed = fmt.Sprintf("agreement violation: decided %v", res.AgreementViolation.DecidedValues(p))
		// Re-derive a replayable witness schedule for the record; the
		// explorer itself only keeps the violating configuration. The
		// search can come back empty within its budget — Violated keeps
		// the status honest regardless. (SearchLimits has no reduce
		// axis: witness extraction must run unreduced.)
		w, werr := lowerbound.FindAgreementViolation(p, inputs, k, cell.SearchLimits(check.DefaultMaxConfigs, 0))
		if werr != nil {
			return nil, werr
		}
		out.Violation = w
	}
	return out, nil
}

// validateOutcome runs the adversarial-schedule validator and seeds an
// Outcome with the protocol's object count. The returned status string is
// the table rendering text — "agreement+validity OK over N adversarial
// schedules" or a FAILED diagnosis — exactly as harness rendered it; a
// failure is additionally recorded in Outcome.Failed so the runner can
// gate on it.
func validateOutcome(p model.Protocol, k int, cell Cell) (*Outcome, string) {
	out := &Outcome{Measured: len(p.Objects()), Certified: -1}
	if err := harness.ValidateProtocol(p, k, cell.ValidateOptions()); err != nil {
		out.Failed = "FAILED: " + err.Error()
		return out, out.Failed
	}
	eff := cell.Schedules
	if eff <= 0 {
		eff = 25
	}
	return out, fmt.Sprintf("agreement+validity OK over %d adversarial schedules", eff)
}

// refutedOutcome is a register row's outcome. The model protocols of the
// algorithms Table 1 cites for registers (baseline.RacingCounters and
// baseline.RegisterKSet, which runs it inside) violate agreement, so the
// row prints the cited upper bound unvalidated, no measured count, and
// the refutation (TestTable1RegisterRowsRefuted finds both witnesses).
// It runs no search: the cell reports a citation and stays ok.
func refutedOutcome(row harness.Row, refutation string) *Outcome {
	row.Measured, row.Certified = -1, -1
	row.Status = "REFUTED: " + refutation + "; UB cited, unvalidated"
	return &Outcome{Measured: -1, Certified: -1, Table: &row}
}

// appendFailure joins failure diagnoses the way harness.Table1 appended
// certificate failures to validation statuses.
func appendFailure(prev, next string) string {
	if prev == "" {
		return next
	}
	return prev + "; " + next
}

// Table1Rows regenerates the paper's Table 1 for the given n and k by
// running the eight table scenarios in order — the sequential,
// deterministic entry point cmd/table1 uses. The concurrent grid runner
// produces identical rows (scenarios are independent and seeded).
func Table1Rows(n, k int, opts harness.ValidateOptions) ([]harness.Row, error) {
	if n <= k || k < 1 {
		return nil, fmt.Errorf("sweep: need n > k >= 1, got n=%d k=%d", n, k)
	}
	var rows []harness.Row
	for _, key := range TableRowKeys() {
		spec, _ := RowByKey(key)
		if spec.Applies != nil && !spec.Applies(n, k) {
			continue
		}
		out, err := spec.Run(Cell{Row: key, N: n, K: k, Schedules: opts.Schedules, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, *out.Table)
	}
	return rows, nil
}

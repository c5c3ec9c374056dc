// Package harness drives the experiments that regenerate the paper's
// evaluation: every row of Table 1 (paper bound vs. measured object count
// vs. machine-checked certificate), the Lemma 8 solo step-complexity
// census, and the adversarial-schedule correctness validation used by both
// the cmd/ tools and the benchmarks.
package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/check"
	"repro/internal/model"
	"repro/internal/sched"
)

// ValidateOptions tunes ValidateProtocol.
type ValidateOptions struct {
	// Schedules is the number of seeded random schedules (default 25).
	Schedules int
	// ContentionSteps is the random-contention phase length per schedule
	// (default 64 * n * objects).
	ContentionSteps int
	// SoloBound caps each finishing solo run (default 20*n*(objects+1)).
	SoloBound int
	// Seed seeds the schedule generator.
	Seed int64
}

func (o ValidateOptions) withDefaults(p model.Protocol) ValidateOptions {
	n := p.NumProcesses()
	objs := len(p.Objects())
	if o.Schedules <= 0 {
		o.Schedules = 25
	}
	if o.ContentionSteps <= 0 {
		o.ContentionSteps = 64 * n * (objs + 1)
	}
	if o.SoloBound <= 0 {
		o.SoloBound = 20 * n * (objs + 1)
	}
	return o
}

// ValidateProtocol checks k-agreement and validity of a protocol across
// many adversarial schedules: each trial runs a seeded random scheduler
// for a contention phase, then finishes every undecided process solo
// (which must terminate, by obstruction-freedom), then checks the decided
// values. Inputs rotate through assignments that exercise all values.
func ValidateProtocol(p model.Protocol, k int, opts ValidateOptions) error {
	opts = opts.withDefaults(p)
	n := p.NumProcesses()
	m := model.InputDomain(p)
	if m <= 0 {
		m = 2
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	for trial := 0; trial < opts.Schedules; trial++ {
		inputs := make([]int, n)
		for i := range inputs {
			switch trial % 3 {
			case 0:
				inputs[i] = i % m // rotating assignment
			case 1:
				inputs[i] = (n - 1 - i) % m // reversed
			default:
				inputs[i] = rng.Intn(m) // random
			}
		}
		c, err := model.NewConfig(p, inputs)
		if err != nil {
			return err
		}
		// Contention phase under a random adversary; the step-limit error
		// is expected and ignored (progress is only conditional).
		r, err := check.Run(p, c, sched.NewRandom(rng.Int63()), opts.ContentionSteps)
		if err != nil && r == nil {
			return err
		}
		// Finish everyone solo, in random order.
		order := rng.Perm(n)
		for _, pid := range order {
			if _, done := c.Decided(p, pid); done {
				continue
			}
			if _, err := check.SoloSteps(p, c, pid, opts.SoloBound); err != nil {
				return fmt.Errorf("harness: trial %d: solo finish of p%d: %w", trial, pid, err)
			}
		}
		final := &check.Result{Final: c, Decisions: map[int]int{}}
		for pid := 0; pid < n; pid++ {
			if v, ok := c.Decided(p, pid); ok {
				final.Decisions[pid] = v
			} else {
				return fmt.Errorf("harness: trial %d: p%d undecided after solo finish", trial, pid)
			}
		}
		if err := check.CheckAll(final, k, inputs); err != nil {
			return fmt.Errorf("harness: trial %d (inputs %v): %w", trial, inputs, err)
		}
	}
	return nil
}

// SoloCensus measures the maximum number of steps any solo run takes from
// randomly reached configurations — the empirical side of Lemma 8's
// 8(n-k) bound for Algorithm 1 (and a liveness sanity check for the
// baselines, which have their own pass structures).
type SoloCensus struct {
	// MaxSteps is the largest solo run observed.
	MaxSteps int
	// Trials is the number of solo runs measured.
	Trials int
	// Bound is the protocol's declared bound (0 if none).
	Bound int
}

// MeasureSolo runs `trials` experiments: random contention for a random
// number of steps, then a random undecided process runs solo; its step
// count is recorded. bound > 0 additionally enforces the bound and errors
// on violation.
func MeasureSolo(p model.Protocol, k int, trials int, bound int, seed int64) (*SoloCensus, error) {
	n := p.NumProcesses()
	m := model.InputDomain(p)
	if m <= 0 {
		m = 2
	}
	rng := rand.New(rand.NewSource(seed))
	census := &SoloCensus{Bound: bound}

	for trial := 0; trial < trials; trial++ {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Intn(m)
		}
		c, err := model.NewConfig(p, inputs)
		if err != nil {
			return nil, err
		}
		warm := rng.Intn(16 * n * (len(p.Objects()) + 1))
		r, err := check.Run(p, c, sched.NewRandom(rng.Int63()), warm)
		if err != nil && r == nil {
			return nil, err
		}
		active := c.Active(p)
		if len(active) == 0 {
			continue
		}
		pid := active[rng.Intn(len(active))]
		soloCap := bound
		if soloCap <= 0 {
			soloCap = 50 * n * (len(p.Objects()) + 1)
		}
		res, err := check.SoloRun(p, c, pid, soloCap)
		if err != nil {
			return nil, fmt.Errorf("harness: solo census trial %d (p%d): %w", trial, pid, err)
		}
		steps := res.Steps
		if steps > census.MaxSteps {
			census.MaxSteps = steps
		}
		census.Trials++
		if bound > 0 && steps > bound {
			return nil, fmt.Errorf("harness: Lemma 8 violated: p%d took %d solo steps, bound %d", pid, steps, bound)
		}
	}
	return census, nil
}

// Row is one regenerated row of Table 1. The row *definitions* — which
// protocol each row validates and which construction certifies it — live
// in internal/sweep's scenario registry; this package keeps the
// validation primitives and the rendering.
type Row struct {
	// Task and Objects identify the row as in the paper.
	Task, Objects string
	// PaperLB and PaperUB are the paper's bound expressions with values
	// substituted.
	PaperLB, PaperUB string
	// Measured is the object count of our implementation (-1 when the row
	// has no implemented upper-bound algorithm).
	Measured int
	// Certified is the object count certified by the executable
	// lower-bound machinery (-1 when the row's bound comes from cited
	// prior work rather than this paper's constructions).
	Certified int
	// Status summarizes validation.
	Status string
}

// RenderTable renders rows in the paper's Table 1 layout.
func RenderTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s | %-26s | %-22s | %-20s | %-8s | %-9s | %s\n",
		"Task", "Objects", "Paper lower bound", "Paper upper bound", "Measured", "Certified", "Validation")
	b.WriteString(strings.Repeat("-", 140) + "\n")
	for _, r := range rows {
		meas := "—"
		if r.Measured >= 0 {
			meas = fmt.Sprintf("%d", r.Measured)
		}
		cert := "—"
		if r.Certified >= 0 {
			cert = fmt.Sprintf("%d", r.Certified)
		}
		fmt.Fprintf(&b, "%-18s | %-26s | %-22s | %-20s | %-8s | %-9s | %s\n",
			r.Task, r.Objects, r.PaperLB, r.PaperUB, meas, cert, r.Status)
	}
	return b.String()
}

// Command lbcheck runs the paper's lower-bound constructions and prints
// their traces:
//
//	lbcheck -figure1 [-n 6]        Lemma 9 induction against Algorithm 1
//	lbcheck -theorem10 [-n 6 -k 2] full Theorem 10 induction
//	lbcheck -counterexample        agreement violation of the 2-process
//	                               swap consensus run with 3 processes
//	lbcheck -covering [-n 4]       covering scan + Lemma 13 γ search on a
//	                               bounded-domain protocol
//	lbcheck -forbidden [-n 6]      Lemma 20 forbidden-value ledger run
//	                               (Figure 6)
//	lbcheck -lemma16 [-n 4]        Lemma 16 X/Y covering induction
//	                               (Figures 2-5)
//
// Each mode's default search budget and protocol instance are defined
// once in internal/sweep's mode registry, shared with the sweep runner.
//
// Every search here — the -theorem10 and -counterexample witness
// searches, the -covering scan and its Lemma 13 γ search, the Lemma 16
// valency certifications — runs on the frontier engine: -workers sets
// its parallelism (results are identical for every setting),
// -fingerprints switches deduplication from exact string keys to 64-bit
// fingerprints (leaner, with a ~2^-64 per-pair collision risk),
// -store/-membudget select the disk-spilling state store (frontier and
// visited-set dedup state both spill; a witness's provenance path
// travels with its node), and -progress streams per-level engine
// throughput to stderr, keeping stdout parseable. The witness searches
// read schedules off provenance paths, which only the
// level-synchronized order settles: passing -order async (or -reduce, or
// -checkpoint) to a search mode is an error, never a silent fallback.
// -figure1 and the -forbidden ledger run use their own sequential
// passes; given only those modes, an engine flag is a usage error naming
// it. -max and -depth override any mode's default budget.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/model"
	"repro/internal/prof"
	"repro/internal/sweep"
	"repro/internal/trace"
)

var (
	// errUsage reports that no mode flag was given.
	errUsage = errors.New("no mode selected; pass one of -figure1 -theorem10 -counterexample -covering -forbidden -lemma16")
	// errEngineFlag reports an engine flag given only to modes that run no
	// frontier engine.
	errEngineFlag = errors.New("-figure1 and -forbidden run no frontier engine")
)

// engineFlags names the flags of the engine block (harness.EngineFlags).
var engineFlags = []string{"workers", "fingerprints", "store", "membudget", "progress", "order", "reduce", "checkpoint", "checkpointevery"}

// usageError marks an error as the command line's: a flag that does not
// parse or an engine flag block that does not validate.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbcheck:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode is the status lbcheck exits with on err: 2 for a usage error,
// 1 for a run that failed.
func exitCode(err error) int {
	if errors.Is(err, errUsage) || errors.Is(err, errEngineFlag) || errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lbcheck", flag.ContinueOnError)
	inst := harness.RegisterInstanceFlags(fs, 6, 2, 0)
	n, k := inst.N, inst.K
	figure1 := fs.Bool("figure1", false, "run the Lemma 9 construction (Figure 1)")
	theorem10 := fs.Bool("theorem10", false, "run the full Theorem 10 induction")
	counter := fs.Bool("counterexample", false, "find the 3-process violation of the pair consensus")
	covering := fs.Bool("covering", false, "covering scan and Lemma 13 γ search")
	forbidden := fs.Bool("forbidden", false, "Lemma 20 ledger run (Figure 6)")
	lemma16 := fs.Bool("lemma16", false, "Lemma 16 X/Y covering induction (Figures 2-5)")
	limitFlags := harness.RegisterLimitFlags(fs, 0, 0)
	engFlags := harness.RegisterEngineFlags(fs, true)
	profFlags := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	maxConfigs, maxDepth := limitFlags.Max, limitFlags.Depth
	if (*figure1 || *forbidden) && !*theorem10 && !*counter && !*covering && !*lemma16 {
		var given []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(engineFlags, f.Name) {
				given = append(given, "-"+f.Name)
			}
		})
		if len(given) > 0 {
			return fmt.Errorf("%w: %s would be ignored", errEngineFlag, strings.Join(given, " "))
		}
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "lbcheck:", perr)
		}
	}()

	// base is the engine flags as search limits, validated once: a bad
	// -store/-membudget pair, or a flag the witness-producing searches
	// cannot honor (-order async, -reduce, -checkpoint), is a usage error
	// before any search runs.
	base, err := engFlags.SearchLimits(0, 0, os.Stderr)
	if err != nil {
		return usageError{err}
	}
	// withOverrides is base with a mode's budget: the given defaults, with
	// -max/-depth overriding them.
	withOverrides := func(modeConfigs, modeDepth int) lowerbound.SearchLimits {
		l := base
		l.MaxConfigs, l.MaxDepth = modeConfigs, modeDepth
		if *maxConfigs > 0 {
			l.MaxConfigs = *maxConfigs
		}
		if *maxDepth > 0 {
			l.MaxDepth = *maxDepth
		}
		return l
	}
	// limits resolves a mode's default budget from the shared sweep
	// registry and applies the overrides.
	limits := func(modeKey string) lowerbound.SearchLimits {
		mode, ok := sweep.LBModeByKey(modeKey)
		if !ok {
			panic("lbcheck: unregistered mode " + modeKey)
		}
		return withOverrides(mode.MaxConfigs, mode.MaxDepth)
	}
	// instance builds a mode's protocol and canonical inputs from the
	// shared definition.
	instance := func(modeKey string) (model.Protocol, []int, error) {
		mode, ok := sweep.LBModeByKey(modeKey)
		if !ok {
			return nil, nil, fmt.Errorf("unregistered mode %s", modeKey)
		}
		return mode.Build(*n, *k)
	}

	ran := false

	if *figure1 {
		ran = true
		p, _, err := instance("figure1")
		if err != nil {
			return err
		}
		res, err := lowerbound.ConsensusCertificate(p, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "protocol: %s (%d objects)\n", p.Name(), len(p.Objects()))
		fmt.Fprint(out, trace.Figure1(res))
	}

	if *theorem10 {
		ran = true
		p, _, err := instance("theorem10")
		if err != nil {
			return err
		}
		cert, err := lowerbound.Theorem10Driver(p, *k, limits("theorem10"), 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "protocol: %s (%d objects)\n", p.Name(), len(p.Objects()))
		fmt.Fprint(out, trace.Theorem10(cert))
	}

	if *counter {
		ran = true
		p, inputs, err := instance("counterexample")
		if err != nil {
			return err
		}
		w, err := lowerbound.FindAgreementViolation(p, inputs, 1, limits("counterexample"))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "protocol: %s (1 swap object, correct only for n=2)\n", p.Name())
		fmt.Fprint(out, trace.Witness("agreement violation with 3 processes", w))
		if w == nil {
			return errors.New("no violation found (unexpected: one must exist)")
		}
	}

	if *covering {
		ran = true
		p, inputs, err := instance("covering")
		if err != nil {
			return err
		}
		scan, err := lowerbound.CoveringScan(p, inputs, limits("covering"))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "protocol: %s\n", p.Name())
		fmt.Fprint(out, trace.Covering(scan))

		// Lemma 13 demonstration on the same protocol: Q = {0, 1},
		// S = the covering processes found by the scan.
		c, err := model.NewConfig(p, inputs)
		if err != nil {
			return err
		}
		var s []int
		for _, obj := range slices.Sorted(maps.Keys(scan.CoverMap)) { // not map order: S's order steers the search
			if pid := scan.CoverMap[obj]; pid != 0 && pid != 1 {
				s = append(s, pid)
			}
		}
		if len(s) > 0 {
			res, err := lowerbound.Lemma13Gamma(p, c, []int{0, 1}, s,
				withOverrides(5000, 12), withOverrides(20000, 40))
			if err != nil {
				fmt.Fprintf(out, "Lemma 13 search: %v\n", err)
			} else {
				fmt.Fprintf(out, "Lemma 13: γ = %v (tried %d prefixes); Q bivalent after block swap, witnesses decide %v\n",
					res.Gamma, res.Tried, res.Bivalence.Values)
			}
		}
	}

	if *forbidden {
		ran = true
		p, inputs, err := instance("forbidden")
		if err != nil {
			return err
		}
		ledgerRun, err := lowerbound.RunLedger(p, inputs, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "protocol: %s\n", p.Name())
		fmt.Fprint(out, trace.Ledger(ledgerRun))
	}

	if *lemma16 {
		ran = true
		p, _, err := instance("lemma16")
		if err != nil {
			return err
		}
		res, err := lowerbound.Lemma16Run(p, limits("lemma16"))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "protocol: %s\n", p.Name())
		fmt.Fprint(out, trace.Lemma16(res))
	}

	if !ran {
		return errUsage
	}
	return nil
}

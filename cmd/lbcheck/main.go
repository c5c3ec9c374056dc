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
// The schedule and valency searches (-theorem10, -counterexample, the
// Lemma 16 valency certifications) run on the sharded frontier engine:
// -workers sets its parallelism (results are identical for every
// setting), -fingerprints switches deduplication from exact string
// keys to 64-bit fingerprints (leaner, with a ~2^-64 per-pair collision
// risk), -store/-membudget select the disk-spilling state store (the
// searches retain provenance, so their frontiers stay resident and the
// visited-set dedup state spills), and -progress streams engine
// throughput to stderr, keeping stdout parseable — per completed level
// for the level-synchronized order, per wall-clock tick (cumulative
// states admitted/visited) under -order async. Note that every search
// here extracts witness schedules from provenance chains, which the
// async order cannot maintain: passing -order async (or -reduce, or
// -checkpoint) to a search mode is a usage error, never a silent
// fallback. The covering scans of -covering and the -forbidden
// ledger run still use their original sequential passes and ignore the
// engine flags. -max and -depth override any mode's default budget.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/model"
	"repro/internal/prof"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// errUsage reports that no mode flag was given.
var errUsage = errors.New("no mode selected; pass one of -figure1 -theorem10 -counterexample -covering -forbidden -lemma16")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lbcheck:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
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
		return err
	}
	maxConfigs, maxDepth := limitFlags.Max, limitFlags.Depth

	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "lbcheck:", perr)
		}
	}()

	// withOverrides threads the engine flags into a search budget, with
	// -max/-depth overriding the given defaults.
	withOverrides := func(modeConfigs, modeDepth int) lowerbound.SearchLimits {
		if *maxConfigs > 0 {
			modeConfigs = *maxConfigs
		}
		if *maxDepth > 0 {
			modeDepth = *maxDepth
		}
		l, err := engFlags.SearchLimits(modeConfigs, modeDepth, os.Stderr)
		if err != nil {
			panic("lbcheck: " + err.Error()) // flag errors are caught below before any mode runs
		}
		return l
	}
	// Surface a bad -store/-membudget pair, or a flag the witness-producing
	// searches cannot honor (-order async, -reduce, -checkpoint), as a
	// usage error before any search runs.
	if _, err := engFlags.SearchLimits(0, 0, nil); err != nil {
		return err
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

// Command ablate runs the design-choice ablations of Algorithm 1: it
// builds the algorithm with one ingredient weakened (a core.Ablation) and
// either exhibits an agreement-violating schedule (for the load-bearing
// ingredients) or validates the variant under adversarial schedules (for
// the inessential ones).
//
//	ablate -margin 1              weaken the line 16 threshold (breaks)
//	ablate -objects 1 -n 3        drop below n-k objects (breaks)
//	ablate -noconflict            ignore conflicts (breaks)
//	ablate -tiebreak highest      change the line 15 tie-break (safe)
//	ablate                        the faithful algorithm (safe)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	inst := harness.RegisterInstanceFlags(fs, 3, 1, 2)
	n, k, m := inst.N, inst.K, inst.M
	margin := fs.Int("margin", 2, "line 16 decision margin (paper: 2)")
	objects := fs.Int("objects", 0, "number of swap objects (0 = paper's n-k)")
	noconflict := fs.Bool("noconflict", false, "ignore the conflict flag (ablate lines 5/8-9/13)")
	tiebreak := fs.String("tiebreak", "lowest", "line 15 tie-break: lowest|highest")
	budget := fs.Int("budget", 300000, "configuration budget for the violation search")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *margin < 1 {
		return fmt.Errorf("-margin %d: need a margin >= 1", *margin)
	}

	abl := core.Ablation{
		Margin:               *margin,
		Objects:              *objects,
		DisableConflictReset: *noconflict,
	}
	switch *tiebreak {
	case "lowest":
		abl.TieBreak = core.TieBreakLowest
	case "highest":
		abl.TieBreak = core.TieBreakHighest
	default:
		return fmt.Errorf("unknown tie-break %q", *tiebreak)
	}

	v, err := core.New(core.Params{N: *n, K: *k, M: *m, Ablation: abl})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "variant: %s\n", v.Name())
	if v.Faithful() {
		fmt.Fprintln(out, "(no ablation active: this is the paper's Algorithm 1)")
	}

	inputs := make([]int, *n)
	for i := range inputs {
		inputs[i] = i % *m
	}
	w, err := lowerbound.FindAgreementViolation(v, inputs, *k,
		lowerbound.SearchLimits{MaxConfigs: *budget})
	if err != nil {
		return err
	}
	if w != nil {
		fmt.Fprint(out, trace.Witness("agreement violation", w))
		fmt.Fprintln(out, "the ablated ingredient is load-bearing: the variant is NOT a correct algorithm")
		return nil
	}
	fmt.Fprintf(out, "no violation within %d configurations; validating under adversarial schedules...\n", *budget)
	if err := harness.ValidateProtocol(v, *k, harness.ValidateOptions{Schedules: 25, Seed: 1}); err != nil {
		fmt.Fprintf(out, "validation FAILED: %v\n", err)
		return nil
	}
	fmt.Fprintln(out, "validation passed: agreement and validity held on every schedule")
	return nil
}

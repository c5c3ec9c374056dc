// Package trace renders executions and lower-bound constructions as text
// artifacts: the Figure 1 induction diagram of Lemma 9, execution
// listings, covering maps, and ledger evolutions (Figure 6). The renderers
// are consumed by cmd/lbcheck and cmd/table1 and by EXPERIMENTS.md
// regeneration.
package trace

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/lowerbound"
	"repro/internal/model"
)

// Figure1 renders a Lemma 9 certificate in the shape of the paper's
// Figure 1: one line per inductive stage showing the quiet process, the
// mirrored prefix length τ, and the object B⋆ added to A.
func Figure1(res *lowerbound.Lemma9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lemma 9 construction (Figure 1): α decided %v\n", res.AlphaDecided)
	fmt.Fprintf(&b, "%-6s %-8s %-10s %-12s %s\n", "stage", "process", "|τ| steps", "new object", "value(B⋆) on both sides")
	for i, s := range res.Stages {
		fmt.Fprintf(&b, "%-6d q%-7d %-10d B%-11d %v\n", i+1, s.Q, s.TauLen, s.NewObject, s.ValueAfter)
	}
	fmt.Fprintf(&b, "A_%d = {", len(res.Stages))
	for i, obj := range res.Objects {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "B%d", obj)
	}
	fmt.Fprintf(&b, "}  →  the algorithm uses at least %d swap objects\n", len(res.Objects))
	return b.String()
}

// Theorem10 renders the full induction certificate.
func Theorem10(cert *lowerbound.Theorem10Certificate) string {
	var b strings.Builder
	b.WriteString("Theorem 10 induction:\n")
	for _, s := range cert.Steps {
		if s.K == 1 {
			fmt.Fprintf(&b, "  level k=1: base case over %d processes\n", len(s.Processes))
			continue
		}
		branch := "no k-value execution found → recurse on (R, k-1)"
		if s.FoundKValues {
			branch = "R-only execution deciding k values found → Lemma 9 with Q = P−R"
		}
		fmt.Fprintf(&b, "  level k=%d: |P|=%d, |R|=%d, %s\n", s.K, len(s.Processes), s.RSize, branch)
	}
	fmt.Fprintf(&b, "certified objects: %d (bound ⌈n/k⌉−1 = %d)\n", cert.Objects, cert.Bound)
	if cert.Lemma9 != nil {
		b.WriteString(Figure1(cert.Lemma9))
	}
	return b.String()
}

// Ledger renders the Lemma 20 ledger evolution (Figure 6): one line per
// stage showing the case taken and the weight growth.
func Ledger(run *lowerbound.LedgerRun) string {
	var b strings.Builder
	b.WriteString("Lemma 20 ledger evolution (Figure 6):\n")
	fmt.Fprintf(&b, "%-6s %-8s %-8s %-6s %-10s %s\n", "stage", "process", "object", "v⋆", "case", "weight")
	for i, s := range run.Stages {
		fmt.Fprintf(&b, "%-6d p%-7d B%-7d %-6d %-10s %d\n", i+1, s.Pid, s.Object, s.VStar, s.Case, s.WeightAfter)
	}
	fmt.Fprintf(&b, "final: %s\n%s\n", run.Ledger, run.Inequality)
	return b.String()
}

// Lemma16 renders the Section 5.1 X/Y covering induction (Figures 2-5):
// one line per stage showing the process, the solo prefix kept, and
// whether the object joined X (frozen) or Y (covered).
func Lemma16(res *lowerbound.Lemma16Result) string {
	var b strings.Builder
	b.WriteString("Lemma 16 covering induction (Figures 2-5):\n")
	fmt.Fprintf(&b, "%-6s %-8s %-6s %-8s %-8s %s\n", "stage", "process", "|γ|", "|δ_j|", "object", "classified")
	for i, s := range res.Stages {
		class := "Y (covered)"
		if s.ToX {
			class = "X (frozen)"
		}
		fmt.Fprintf(&b, "%-6d p%-7d %-6d %-8d B%-7d %s\n", i+1, s.Pid, s.GammaLen, s.PrefixLen, s.Object, class)
	}
	fmt.Fprintf(&b, "X = %v, Y = %v, |X ∪ Y| = %d, completed = %t\n", res.X, res.Y, res.Size(), res.Completed)
	if res.Violation != nil {
		fmt.Fprintf(&b, "AGREEMENT VIOLATION: p%d decided %d while Q was still bivalent\n",
			res.Violation.Pid, res.Violation.Value)
	} else if res.StopReason != "" {
		fmt.Fprintf(&b, "stopped: %s\n", res.StopReason)
	}
	return b.String()
}

// ExecutionListing renders an execution with a header.
func ExecutionListing(title string, e model.Execution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d steps, %d processes, objects touched %v):\n",
		title, len(e), len(e.Participants()), e.ObjectsAccessed())
	b.WriteString(e.String())
	return b.String()
}

// Witness renders a schedule witness from the search machinery.
func Witness(title string, w *lowerbound.Witness) string {
	if w == nil {
		return title + ": no witness found within limits\n"
	}
	return fmt.Sprintf("%s: schedule %v (%d steps, %d configurations explored) decides %v\n",
		title, w.Schedule, len(w.Schedule), w.Visited, w.Decided)
}

// Covering renders a covering-scan result.
func Covering(res *lowerbound.CoveringScanResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "covering scan: max %d objects simultaneously covered (%d configurations visited)\n",
		res.MaxCovered, res.Visited)
	if len(res.CoverMap) > 0 {
		fmt.Fprintf(&b, "  witness schedule: %v\n  cover:", res.Schedule)
		for _, obj := range slices.Sorted(maps.Keys(res.CoverMap)) {
			fmt.Fprintf(&b, " B%d←p%d", obj, res.CoverMap[obj])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package main

import (
	"strconv"
	"time"

	"repro/internal/sweep"
)

// certifyCells is the certify-grid workload's grid: Table 1 (the sweep
// registry's `default` grid, n=8 k=2, validation seed 1 as cmd/table1
// runs it) followed by Theorem 10 certificates at n ∈ {12,16} × k ∈
// {3,4}. The grid has no input vectors, so the benchmark's seed changes
// nothing here: seeding the validation schedules would change the work
// done from run to run. Smoke shrinks n and the schedule count.
func certifyCells(sc scale) ([]sweep.Cell, error) {
	grid, err := sweep.NamedGrid("default")
	if err != nil {
		return nil, err
	}
	certNs, certKs := []int{12, 16}, []int{3, 4}
	if sc == smoke {
		grid.Ns, grid.Ks, grid.Schedules = []int{5}, []int{2}, 2
		certNs, certKs = []int{5, 6}, []int{2}
	}
	cells, err := grid.Cells()
	if err != nil {
		return nil, err
	}
	for _, n := range certNs {
		for _, k := range certKs {
			cells = append(cells, sweep.Cell{Grid: "certify", Row: "theorem10", N: n, K: k})
		}
	}
	return cells, nil
}

// runCertifyGrid is the certify-grid workload: one sweep.Run at
// Parallelism 1 over certifyCells. Every cell must come back ok, and
// every cell that certifies a lower bound must certify exactly the
// paper's bound.
func runCertifyGrid(r *rep) {
	cells, err := certifyCells(r.scale)
	if err != nil {
		r.check(false, "set-up: %v", err)
		return
	}
	opts := sweep.RunOptions{Parallelism: 1}
	var results []sweep.Result
	err = r.timed("sweep.Run", func(span int) error {
		if r.traced() {
			// OnResult fires as each cell finalizes; the record's own
			// wall_ms dates the cell's start.
			opts.OnResult = func(res sweep.Result, _ bool) {
				end := time.Now()
				start := end.Add(-time.Duration(res.WallMS * float64(time.Millisecond)))
				r.rec.add(span, 0, "sweep.cell", start, end, map[string]string{
					"cell": res.Cell, "status": res.Status, "certified": strconv.Itoa(res.Certified)})
			}
		}
		var err error
		results, err = sweep.Run(cells, opts)
		return err
	})
	if err != nil {
		r.check(false, "sweep.Run: %v", err)
		return
	}

	var cellSumMS, table1MS, certSumMS, certMaxMS float64
	certified := 0
	for _, res := range results {
		ok := res.Status == sweep.StatusOK && (res.Bound == 0 || res.Certified == res.Bound)
		r.check(ok, "certify-grid: %s status %q certified %d bound %d %s",
			res.Cell, res.Status, res.Certified, res.Bound, res.Error)
		cellSumMS += res.WallMS
		if res.Row == "theorem10" {
			certSumMS += res.WallMS
			certMaxMS = max(certMaxMS, res.WallMS)
		} else {
			table1MS += res.WallMS
		}
		if res.Certified > 0 {
			certified += res.Certified
		}
	}
	r.layer["sweep.cells"] = float64(len(results))
	r.layer["sweep.table1_s"] = table1MS / 1000
	r.layer["sweep.overhead_ms_per_cell"] = (r.wall.Seconds()*1000 - cellSumMS) / float64(len(results))
	r.layer["lowerbound.cert_sum_s"] = certSumMS / 1000
	r.layer["lowerbound.cert_max_s"] = certMaxMS / 1000
	r.layer["lowerbound.certified_total"] = float64(certified)
	if r.traced() {
		findKDistinct(r)
	}
}

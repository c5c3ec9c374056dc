package main

// workload is one entry of the benchmark: a named set of inputs and the
// function that runs one repetition of it in a fresh process.
type workload struct {
	name string
	// why says which layer the workload loads and which it bypasses (the
	// same line BENCHMARK.json carries; "" on a reference run, which is
	// not a workload of its own).
	why string
	// reps is how many repetitions a full run of all workloads makes.
	// A driver run of one workload repeats for -seconds instead.
	reps int
	run  func(*rep)
	// refs names the reference runs the traced pass adds, and derive
	// turns them and the traced repetition into the layer's ratios.
	refs   []string
	derive func(main repResult, ref map[string]repResult, layer map[string]float64)
}

// ratio is a/b, or 0 when the reference is missing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// adopt takes a reference run's own layer metrics as the workload's.
func adopt(layer map[string]float64, ref repResult) {
	for name, v := range ref.Layer {
		layer[name] = v
	}
}

// workloads are the eight workloads of BENCHMARK.json, in its order.
var workloads = []*workload{
	{
		name: "explore-levelsync",
		why:  "Algorithm 1 row 3, 1M states, 1 worker, mem store: the single-core hot path (stepper + inline admit) under every other layer; store, reduce, dist, serve idle",
		reps: 7,
		run:  runExplore(levelsyncSpec, "check.ExploreOpts", nil),
		refs: []string{"ref-levelsync-2w", "ref-model-replay"},
		derive: func(main repResult, ref map[string]repResult, layer map[string]float64) {
			adopt(layer, ref["ref-model-replay"])
			layer["check.scale_2w"] = ratio(ref["ref-levelsync-2w"].Layer["check.states_per_s"], main.Layer["check.states_per_s"])
		},
	},
	{
		name: "explore-async",
		why:  "same instance, async order, 2 workers: the check layer's other scheduler (work-stealing deques, quiescence), so a change that helps one order and costs the other shows",
		reps: 9,
		run:  runExplore(asyncSpec, "check.ExploreOpts", nil),
		refs: []string{"ref-levelsync-2w", "ref-model-replay"},
		derive: func(main repResult, ref map[string]repResult, layer map[string]float64) {
			adopt(layer, ref["ref-model-replay"])
			layer["check.async_vs_levelsync"] = ratio(main.Layer["check.states_per_s"], ref["ref-levelsync-2w"].Layer["check.states_per_s"])
		},
	},
	{
		name: "explore-spill",
		why:  "same instance, 1 worker, spill store at 4 MiB (~141 MB spilled): store and disk I/O are the extra work; peak_rss_mb is what a resident-everything speed-up would regress",
		reps: 5,
		run:  runExplore(spillSpec, "check.ExploreOpts", spillLayers),
		refs: []string{"explore-levelsync"},
		derive: func(main repResult, ref map[string]repResult, layer map[string]float64) {
			layer["store.spill_slowdown"] = ratio(ref["explore-levelsync"].Layer["check.states_per_s"], main.Layer["check.states_per_s"])
		},
	},
	{
		name: "explore-reduce",
		why:  "toy-bit race n=7, sym+sleep, 2 workers, exhaustive (1,784,840 orbit states): the only workload the reduction layer works on, and the parallel levelsync path",
		reps: 3,
		run:  runExplore(reduceSpec, "check.ExploreOpts", reduceLayers),
		refs: []string{"ref-reduce-sym"},
		derive: func(main repResult, ref map[string]repResult, layer map[string]float64) {
			layer["reduce.sleep_cost"] = ratio(main.E2E["wall_s"], ref["ref-reduce-sym"].E2E["wall_s"])
		},
	},
	{
		name: "explore-dist",
		why:  "row 3 at 500k states over dist.LoopbackExplore, 2 peers x 1 worker: wire encode/relay/decode/rematerialise dominates, absent from every other workload; never cancelled",
		reps: 7,
		run:  runExplore(distSpec, "dist.LoopbackExplore", distLayers),
		refs: []string{"ref-levelsync-2w-half"},
		derive: func(main repResult, ref map[string]repResult, layer map[string]float64) {
			layer["dist.slowdown"] = ratio(ref["ref-levelsync-2w-half"].Layer["check.states_per_s"], main.Layer["check.states_per_s"])
		},
	},
	{
		name: "certify-grid",
		why:  "one sweep.Run: Table 1 (n=8 k=2) plus Theorem 10 certificates at n in {12,16} x k in {3,4}: the paper's artefacts; lowerbound, sweep, harness, exact-key provenance engine",
		reps: 3,
		run:  runCertifyGrid,
		refs: []string{"ref-model-replay"},
		derive: func(_ repResult, ref map[string]repResult, layer map[string]float64) {
			adopt(layer, ref["ref-model-replay"])
		},
	},
	{
		name: "serve-mix",
		why:  "in-process mcheckd, closed loop of 2 clients, 4000 seeded requests (92% orbit-keyed hits, 5% cold, 3% coalescing followers): request to verdict; serve/cache/admission show",
		reps: 1,
		run:  runServeMix,
	},
	{
		name: "checkpoint-resume",
		why:  "row 3 at 2 workers, a snapshot at every barrier, cancelled after level 12, then resumed to the verdict: checkpoint write overhead and resume cost, which nothing else times",
		reps: 4,
		run:  runCheckpointResume,
		refs: []string{"ref-kill-no-checkpoint", "ref-levelsync-2w"},
		derive: func(main repResult, ref map[string]repResult, layer map[string]float64) {
			kill := main.E2E["wall_s"] - main.Layer["checkpoint.resume_s"]
			restart := ref["ref-levelsync-2w"].E2E["wall_s"]
			layer["checkpoint.write_overhead"] = ratio(kill, ref["ref-kill-no-checkpoint"].E2E["wall_s"])
			layer["checkpoint.restart_s"] = restart
			layer["checkpoint.resume_vs_restart"] = ratio(main.Layer["checkpoint.resume_s"], restart)
		},
	},
}

// references are the runs that exist only as the other side of a ratio:
// a workload's instance with one layer taken out or put in. They run as
// children like a workload does, in the traced pass only.
var references = []*workload{
	{name: "ref-levelsync-2w", run: runExplore(levelsync2wSpec, "check.ExploreOpts", nil)},
	{name: "ref-levelsync-2w-half", run: runExplore(distRefSpec, "check.ExploreOpts", nil)},
	{name: "ref-reduce-sym", run: runExplore(reduceSymSpec, "check.ExploreOpts", nil)},
	{name: "ref-kill-no-checkpoint", run: runKillNoCheckpoint},
	{name: "ref-model-replay", run: runModelReplay},
}

// findWorkload resolves a workload or reference by name.
func findWorkload(name string) *workload {
	for _, set := range [][]*workload{workloads, references} {
		for _, w := range set {
			if w.name == name {
				return w
			}
		}
	}
	return nil
}

// Command mcheck model-checks a built-in protocol instance: it explores
// the reachable configuration space from a chosen input assignment,
// verifies k-agreement across all visited configurations, classifies the
// valency of the initial configuration for a chosen process pair, and
// reports coverage statistics.
//
// Usage:
//
//	mcheck -proto algorithm1 -n 3 -k 1 -m 2 [-inputs 0,1,1] [-max 200000]
//	       [-workers 0] [-stringkeys] [-progress]
//	       [-store mem|spill] [-membudget 64MB] [-reduce none|sym]
//	       [-order levelsync|async] [-checkpoint dir [-checkpointevery N]]
//
// Exploration runs on the sharded frontier engine: -workers sets the
// parallelism (0 = all cores), -stringkeys switches from 64-bit
// fingerprint dedup to exact string keys, and -progress streams
// per-level throughput to stderr. -store
// selects the state-store backend: "mem" keeps the visited set and
// frontier in RAM; "spill" bounds resident store memory by -membudget,
// spilling visited fingerprints to sorted runs and frontier segments to
// disk, so instances larger than RAM finish bounded by disk and time.
// Results are identical for every -workers/-store setting.
// -reduce selects the state-space reduction layer: "sym" explores one
// representative per process-symmetry orbit (for protocols that declare
// symmetry — toybit, pair, pairing; others run unreduced), and preserves
// decided-value sets, valency and violation existence; visited counts
// legitimately shrink. "sym+sleep" is a deprecated synonym of "sym".
// -order selects the exploration order: "levelsync" (the default) processes the frontier in BFS levels with a
// barrier between them, "async" replaces the barrier with per-worker
// work-stealing deques — the same visited set and verdicts, but no
// per-level progress and no witness provenance (so -order async composes
// with exploration, not with the certificate searches), and it runs in
// one process over the in-memory store, unreduced or under -reduce sym,
// without -checkpoint: -help lists, from check.ModeConflicts, what each
// flag cannot be
// combined with. -checkpoint names a directory to snapshot
// exploration state into at level barriers; re-running the same command
// after a crash or kill resumes from the last committed snapshot and
// reaches the identical final verdict. -checkpointevery thins snapshots
// to every N-th barrier.
//
// Distributed exploration shards the frontier across processes:
//
//	mcheck -peer -listen=host:7001                 # one per peer host
//	mcheck -distributed -peers=host1:7001,host2:7001 -proto ... [flags]
//	       [-failover] [-heartbeat 1s] [-peer-retries 3]
//
// Each peer owns a contiguous range of the 64-way global fingerprint
// partition space and runs the unmodified engine over it; the
// coordinator relays successor batches between peers, runs the level
// barriers, applies the global configuration budget there, and merges
// the per-peer verdicts — which are identical, visited set included, to
// a single-process run of the same instance (valency too: peers ship
// replayable decided-value witnesses with their results). The engine
// flags on the coordinator (-workers, -store, -membudget, -reduce) apply
// on every peer; -order async, -stringkeys and -checkpoint do not combine
// with -distributed and are usage errors before any peer is dialled.
// -failover turns confirmed peer death from a fatal error into a
// re-seed: the coordinator redials every peer with jittered backoff
// (-peer-retries attempts each), drops the unreachable ones, and
// restarts the run on the survivors — the verdict is identical because
// verdicts are peer-count-invariant; only capacity degrades. -heartbeat
// sets the liveness-probe period that detects silently wedged peers.
//
// The valency line classifies the initial configuration from the
// exploration just reported, not from a second one: its values are every
// decided value that exploration reached and its complete flag is that
// exploration's (the "decided values reachable" list and the "complete:"
// above it), where an early-stopping classifier would list only the values
// it had seen when the second one turned up. The class is the same.
//
// -json replaces the prose report with one JSON line carrying the
// verdict, valency and every stats block — the machine-readable form
// CI and tooling consume.
//
// Protocols: algorithm1, algorithm1-readable, racing, readable, pair,
// pairing, register-kset, toybit, ablation-margin1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/prof"
)

// errViolation distinguishes a detected agreement violation (exit 1) from
// usage errors (exit 2).
var errViolation = errors.New("agreement violation")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errViolation):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "mcheck:", err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mcheck", flag.ContinueOnError)
	proto := fs.String("proto", "algorithm1", "protocol: "+harness.ProtocolNames)
	inst := harness.RegisterInstanceFlags(fs, 3, 1, 2)
	inputsFlag := fs.String("inputs", "", "comma-separated inputs (default: pid % m)")
	limitFlags := harness.RegisterLimitFlags(fs, 200000, 0)
	engFlags := harness.RegisterEngineFlags(fs, false)
	distFlags := harness.RegisterDistFlags(fs)
	jsonOut := fs.Bool("json", false, "emit one JSON line (verdict, valency, stats) instead of the prose report")
	profFlags := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := distFlags.Validate(); err != nil {
		return err
	}
	if distFlags.PeerMode() {
		return runPeer(distFlags.Listen())
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "mcheck:", perr)
		}
	}()

	p, err := harness.BuildProtocol(*proto, *inst.N, *inst.K, *inst.M)
	if err != nil {
		return err
	}

	inputs := make([]int, p.NumProcesses())
	if *inputsFlag == "" {
		for i := range inputs {
			inputs[i] = i % *inst.M
		}
	} else {
		parts := strings.Split(*inputsFlag, ",")
		if len(parts) != p.NumProcesses() {
			return fmt.Errorf("%d inputs for %d processes", len(parts), p.NumProcesses())
		}
		for i, s := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			inputs[i] = v
		}
	}

	c, err := model.NewConfig(p, inputs)
	if err != nil {
		return err
	}
	all := make([]int, p.NumProcesses())
	for i := range all {
		all[i] = i
	}

	// Progress always goes to stderr: stdout must stay parseable when
	// mcheck is piped into the sweep runner or other tooling.
	engine, err := engFlags.Options(os.Stderr)
	if err != nil {
		return err
	}
	opts := check.ExploreOptions{Limits: limitFlags.ExploreLimits(), Engine: engine}

	// With -json the prose goes nowhere; one structured line replaces it.
	prose := out
	if *jsonOut {
		prose = io.Discard
	}

	fmt.Fprintf(prose, "protocol: %s, %d objects, inputs %v\n", p.Name(), len(p.Objects()), inputs)
	startT := time.Now()
	var res *check.ExploreResult
	if distFlags.Distributed() {
		res, err = dist.Dial(context.Background(), p, distFlags.PeerAddrs(), dist.Spec{
			Proto: *proto, N: *inst.N, K: *inst.K, M: *inst.M,
			AgreeK: *inst.K, Inputs: inputs,
			Limits:  limitFlags.ExploreLimits(),
			Workers: engine.Workers,
			Store:   engine.Store, MemBudget: engine.MemBudget,
			Reduce: engine.Reduction, Order: engine.Order,
			Failover:    distFlags.Failover(),
			Heartbeat:   distFlags.Heartbeat(),
			PeerRetries: distFlags.PeerRetries(),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "mcheck: "+format+"\n", args...)
			},
		})
	} else {
		res, err = check.ExploreOpts(p, c, all, *inst.K, opts)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(startT)
	fmt.Fprintf(prose, "explored %d configurations in %v (%.0f configs/s, complete: %v)\n",
		res.Visited, elapsed.Round(time.Millisecond), float64(res.Visited)/elapsed.Seconds(), res.Complete)
	if res.Store.Kind == check.StoreSpill {
		fmt.Fprintf(prose, "store: spill — %s spilled (%d runs written, %d merged), peak resident %s, %d prefilter hits\n",
			harness.FormatByteSize(res.Store.BytesSpilled), res.Store.RunsWritten,
			res.Store.RunsMerged, harness.FormatByteSize(res.Store.PeakResidentBytes),
			res.Store.PrefilterHits)
	}
	if res.Reduction.Reduce != "" {
		fmt.Fprintf(prose, "reduction: %s — %d states pruned (%d orbit-memo hits)\n",
			res.Reduction.Reduce, res.Reduction.StatesPruned, res.Reduction.OrbitHits)
	}
	if res.Async.Order == check.OrderAsync {
		fmt.Fprintf(prose, "order: async — %d steals, %d quiescence scans\n",
			res.Async.Steals, res.Async.QuiescenceScans)
	}
	if res.Net.Peers > 0 {
		fmt.Fprintf(prose, "distributed: %d peers — %d batches (%s) sent, %d peer stalls\n",
			res.Net.Peers, res.Net.BatchesSent, harness.FormatByteSize(res.Net.BytesSent), res.Net.PeerStalls)
		if res.Net.PeersLost > 0 || res.Net.Retries > 0 {
			fmt.Fprintf(prose, "failover: %d peers lost, %d partitions re-seeded, %d retries\n",
				res.Net.PeersLost, res.Net.ReseededPartitions, res.Net.Retries)
		}
	}
	fmt.Fprintf(prose, "decided values reachable: %v; max distinct decided together: %d\n",
		res.DecidedValues, res.MaxDecidedTogether)

	emitJSON := func(violation bool, val *check.ValencyResult) error {
		if !*jsonOut {
			return nil
		}
		rec := mcheckRecord{
			Proto: p.Name(), N: *inst.N, K: *inst.K, M: *inst.M, Inputs: inputs,
			Visited: res.Visited, Complete: res.Complete,
			Decided: res.DecidedValues, MaxTogether: res.MaxDecidedTogether,
			Violation: violation, ElapsedMS: elapsed.Milliseconds(),
			Store: res.Store, Reduction: res.Reduction, Async: res.Async, Net: res.Net,
		}
		if val != nil {
			rec.Valency = val.Class.String()
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(out, string(b))
		return err
	}

	if res.AgreementViolation != nil {
		fmt.Fprintf(prose, "AGREEMENT VIOLATION: configuration with decided %v\n",
			res.AgreementViolation.DecidedValues(p))
		if err := emitJSON(true, nil); err != nil {
			return err
		}
		return errViolation
	}
	fmt.Fprintf(prose, "k-agreement (k=%d) holds on every visited configuration\n", *inst.K)

	// The exploration's result — a distributed run's merged one included —
	// carries the decided values and the completeness a classification of
	// its own would gather over the same space; nothing is explored twice.
	val := check.ValencyFromResult(res)
	fmt.Fprintf(prose, "initial configuration valency (all processes): %s (values %v, complete %v)\n",
		val.Class, val.Values, val.Complete)
	return emitJSON(false, val)
}

// mcheckRecord is the -json output: one line, the whole verdict.
type mcheckRecord struct {
	Proto  string `json:"proto"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	M      int    `json:"m"`
	Inputs []int  `json:"inputs"`

	Visited     int    `json:"visited"`
	Complete    bool   `json:"complete"`
	Decided     []int  `json:"decided"`
	MaxTogether int    `json:"max_together"`
	Violation   bool   `json:"violation"`
	Valency     string `json:"valency,omitempty"`
	ElapsedMS   int64  `json:"elapsed_ms"`

	Store     check.StoreStats     `json:"store"`
	Reduction check.ReductionStats `json:"reduction"`
	Async     check.AsyncStats     `json:"async"`
	Net       check.NetStats       `json:"net"`
}

// runPeer serves distributed-exploration coordinator connections until
// killed. The bound address goes to stderr (useful with ":0").
func runPeer(listen string) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mcheck: peer listening on %s\n", ln.Addr())
	return dist.ServePeer(context.Background(), ln, harness.BuildProtocol)
}

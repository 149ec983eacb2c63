package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"pbse"
	"pbse/internal/analysis/absint"
	"pbse/internal/bugs"
	"pbse/internal/concolic"
	"pbse/internal/expr"
	"pbse/internal/interp"
	"pbse/internal/phase"
	"pbse/internal/solver"
	"pbse/internal/store"
	"pbse/internal/symex"
)

// The library workloads run pbse.Run on one bundled target with a
// pinned seed input: the W=1 references below are determinism gates,
// so the input cannot vary with -seed. -seed drives the traced run's
// solver replay sample instead.
const (
	libSeedSize = 576
	libRNG      = 42
	// probeStates is the seedState sample size of the solver replay
	// probe: enough queries for a stable per-query time, a few seconds
	// per arm at most.
	probeStates = 400
	setupReps   = 51
)

// libWorkload is one pbse.Run configuration. Workers and the scheduler
// mode are always explicit: Workers 0 would pick the scheduler from the
// host's core count.
type libWorkload struct {
	name          string
	driver        string
	budget        int64
	workers       int
	deterministic bool
	// wantCovered and wantBugs pin a reproducible workload's result.
	// A workload with gateRef set is not reproducible (work stealing);
	// it must cover at least what gateRef pins and find a superset of
	// its bugs.
	wantCovered int
	wantBugs    []string
	gateRef     string
}

var libraryWorkloads = map[string]libWorkload{
	"readelf-w1": {
		name: "readelf-w1", driver: "readelf", budget: 50_000, workers: 1,
		wantCovered: 194, wantBugs: []string{"b5022297132e72c27", "b5efc86fd2570420a"},
	},
	"gif2tiff-w1": {
		name: "gif2tiff-w1", driver: "gif2tiff", budget: 50_000, workers: 1,
		wantCovered: 97,
	},
	"readelf-w8": {
		name: "readelf-w8", driver: "readelf", budget: 400_000, workers: 8,
		deterministic: false, gateRef: "readelf-w1",
	},
}

type libInput struct {
	prog *pbse.Program
	seed []byte
}

// setup builds the target program and generates the seed input.
func (w libWorkload) setup() (*libInput, error) {
	tgt, err := pbse.TargetByDriver(w.driver)
	if err != nil {
		return nil, err
	}
	prog, err := tgt.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.driver, err)
	}
	return &libInput{prog: prog, seed: tgt.GenSeed(rand.New(rand.NewSource(libRNG)), libSeedSize)}, nil
}

func (w libWorkload) options(in *libInput) (pbse.Options, pbse.ExecutorOptions) {
	return pbse.Options{
			Budget: w.budget, Seed: libRNG, Workers: w.workers, Deterministic: w.deterministic,
		},
		pbse.ExecutorOptions{InputSize: len(in.seed)}
}

// fast reports whether Run takes the work-stealing path, which also
// switches the main executor to batched sibling dispatch.
func (w libWorkload) fast() bool { return w.workers > 1 && !w.deterministic }

func bugIDs(rs []*bugs.Report) []string {
	ids := make([]string, 0, len(rs))
	for _, b := range rs {
		ids = append(ids, b.ID())
	}
	sort.Strings(ids)
	return ids
}

func containsAll(have, want []string) bool {
	set := map[string]bool{}
	for _, id := range have {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			return false
		}
	}
	return true
}

// gate checks one Run result against the workload's reference and
// reports whether it passed.
func (w libWorkload) gate(r *report, res *pbse.Result) bool {
	n := len(r.errs)
	ids := bugIDs(res.Bugs)
	if w.gateRef == "" {
		r.check(res.Covered == w.wantCovered, "%s: covered %d blocks, reference %d", w.name, res.Covered, w.wantCovered)
		r.check(strings.Join(ids, ",") == strings.Join(w.wantBugs, ","),
			"%s: bug IDs %v, reference %v", w.name, ids, w.wantBugs)
	} else {
		ref := libraryWorkloads[w.gateRef]
		r.check(res.Covered >= ref.wantCovered, "%s: covered %d blocks, fewer than %s's %d", w.name, res.Covered, ref.name, ref.wantCovered)
		r.check(containsAll(ids, ref.wantBugs), "%s: bug IDs %v miss some of %s's %v", w.name, ids, ref.name, ref.wantBugs)
	}
	return len(r.errs) == n
}

// replayWitnesses re-executes every bug's witness input concretely and
// fails the gate for each that does not reproduce its bug.
func replayWitnesses(r *report, name string, prog *pbse.Program, rs []*bugs.Report) {
	for _, b := range rs {
		if b.Input == nil {
			note("%s: bug %s has no witness input", name, b.ID())
			continue
		}
		entry := &store.CorpusEntry{ID: b.ID(), KindCode: int(b.Kind), BlockID: b.BlockID, Index: b.Index}
		ok, msg, err := store.Replay(prog, entry, b.Input, 0)
		r.check(err == nil && ok, "%s: witness of bug %s does not replay: %s %v", name, b.ID(), msg, err)
	}
}

// runLibrary is the untraced run: pbse.Run repeated until the window is
// spent (at least once), reporting medians over the repetitions.
func runLibrary(w libWorkload, window time.Duration, r *report) error {
	var in *libInput
	setupS, err := timeSetup(setupReps, func() (err error) {
		in, err = w.setup()
		return err
	})
	if err != nil {
		return err
	}
	opts, exOpts := w.options(in)

	heap := startHeapSampler()
	deadline := time.Now().Add(window)
	var walls, rates, covered []float64
	for {
		start := time.Now()
		res, err := pbse.Run(in.prog, in.seed, opts, exOpts)
		wall := time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "%s: run: %v", w.name, err)
			break
		}
		if !w.gate(r, res) {
			r.failed++
		}
		if len(walls) == 0 {
			replayWitnesses(r, w.name, in.prog, res.Bugs)
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(res.Covered)/wall.Seconds())
		covered = append(covered, float64(res.Covered))
		if !time.Now().Before(deadline) {
			break
		}
	}
	peak := heap.Stop()
	if len(walls) == 0 {
		return nil
	}

	tailV, tailP := tail(walls)
	note("%s: %d runs of pbse.Run, budget %d, workers %d; latency tail is p%.0f of N=%d", w.name, len(walls), w.budget, w.workers, tailP, len(walls))
	r.set("setup_s", unitS, setupS)
	r.set("blocks_per_s", unitRate, median(rates))
	r.set("covered_blocks", unitCount, median(covered))
	r.set("peak_heap_mb", unitMB, peak)
	r.set("campaign_latency_p50_s", unitS, median(walls))
	r.set("campaign_latency_tail_s", unitS, tailV)
	r.set("slices_per_s", unitRate, float64(len(walls))/sum(walls))
	return nil
}

// traceLibrary is the traced run. It times each stage call from the
// harness — static report, dry run, concolic trace, phase division —
// and feeds the precomputed report and BBV interval back into pbse.Run,
// so the traced Run repeats only the concolic trace and the division
// besides exploration. An untraced Run of the same options gives the
// reference wall time and results.
func traceLibrary(w libWorkload, seed int64, r *report) error {
	in, err := w.setup()
	if err != nil {
		return err
	}
	opts, exOpts := w.options(in)

	start := time.Now()
	ref, err := pbse.Run(in.prog, in.seed, opts, exOpts)
	refWall := time.Since(start)
	r.attempted++
	if err != nil {
		return fmt.Errorf("%s: untraced run: %w", w.name, err)
	}
	if !w.gate(r, ref) {
		r.failed++
	}

	start = time.Now()
	rep := absint.BuildReport(in.prog)
	reportD := time.Since(start)

	start = time.Now()
	dry := interp.New(in.prog, in.seed, interp.Options{MaxSteps: opts.Budget / 2}).Run()
	dryD := time.Since(start)
	interval := dry.Steps / 48
	if interval < 64 {
		interval = 64
	}

	// The concolic stage runs on an executor configured the way Run
	// configures its own, so it does the same work as Run's stage.
	cexOpts := exOpts
	cexOpts.Static = rep.Abs
	cexOpts.BatchSiblings = w.fast()
	cex := symex.NewExecutor(in.prog, cexOpts)
	cex.Solver.AddCandidate(expr.Assignment{cex.InputArr: append([]byte(nil), in.seed...)})
	start = time.Now()
	con, err := concolic.Run(cex, in.seed, concolic.Options{Interval: interval, MaxSteps: opts.Budget / 2})
	conD := time.Since(start)
	if err != nil {
		return fmt.Errorf("%s: concolic: %w", w.name, err)
	}
	conQueries := cex.Solver.Stats().Queries

	start = time.Now()
	div := phase.Divide(con.BBVs, phase.Options{Report: rep})
	divD := time.Since(start)

	topts := opts
	topts.ConcolicInterval = interval
	topts.PhaseOpts.Report = rep
	start = time.Now()
	res, err := pbse.Run(in.prog, in.seed, topts, exOpts)
	runD := time.Since(start)
	r.attempted++
	if err != nil {
		return fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	n := len(r.errs)
	w.gate(r, res)
	replayWitnesses(r, w.name, in.prog, res.Bugs)
	r.check(res.Concolic.Steps == con.Steps && len(res.Concolic.SeedStates) == len(con.SeedStates),
		"%s: harness concolic stage (%d steps, %d seedStates) differs from Run's (%d, %d)",
		w.name, con.Steps, len(con.SeedStates), res.Concolic.Steps, len(res.Concolic.SeedStates))
	r.check(len(res.Division.Phases) == len(div.Phases), "%s: harness division has %d phases, Run's %d",
		w.name, len(div.Phases), len(res.Division.Phases))
	if w.gateRef == "" {
		r.check(res.Covered == ref.Covered && strings.Join(bugIDs(res.Bugs), ",") == strings.Join(bugIDs(ref.Bugs), ","),
			"%s: traced run differs from the untraced run", w.name)
	}
	if len(r.errs) > n {
		r.failed++
	}

	probe(r, w.name, con.SeedStates, seed)

	// In-Run division time is Run's own measurement (Result.PTime); the
	// concolic stage is taken from the harness call, which did the same
	// work. Exploration is what remains of the traced Run.
	explore := runD - conD - res.PTime
	var steps, turns int64
	for _, p := range res.PhaseStats {
		steps += p.Steps
		turns += p.Turns
	}
	stages := reportD + dryD + runD
	overhead := pct(float64(stages-refWall), float64(refWall))
	note("%s: untraced Run %.3fs; traced stages %.3fs (report %.1fms, dry run %.1fms, concolic %.1fms, divide %.1fms [harness %.1fms], explore %.1fms)",
		w.name, refWall.Seconds(), stages.Seconds(), ms(reportD), ms(dryD), ms(conD), ms(res.PTime), ms(divD), ms(explore))

	r.set("analysis.report_ms", unitMS, ms(reportD))
	r.set("interp.dry_run_ms", unitMS, ms(dryD))
	r.set("interp.steps", unitCount, float64(dry.Steps))
	r.set("concolic.ms", unitMS, ms(conD))
	r.set("concolic.steps", unitCount, float64(con.Steps))
	r.set("concolic.seed_states", unitCount, float64(len(con.SeedStates)))
	r.set("concolic.queries", unitCount, float64(conQueries))
	r.set("phase.divide_ms", unitMS, ms(res.PTime))
	r.set("phase.phases", unitCount, float64(len(res.Division.Phases)))
	r.set("phase.trap_phases", unitCount, float64(res.Division.NumTrap))
	r.set("pbse.explore_ms", unitMS, ms(explore))
	r.set("pbse.steps", unitCount, float64(steps))
	r.set("pbse.turns", unitCount, float64(turns))
	r.set("pbse.steps_per_s", unitRate, float64(steps)/explore.Seconds())
	setGov(r, res.Gov)
	setSolver(r, res.SolverStats)
	r.set("result.bugs_found", unitCount, float64(len(res.Bugs)))
	r.set("result.failed_frac", unitRatio, float64(r.failed)/float64(r.attempted))
	r.set("trace.overhead_pct", unitPct, overhead)
	r.set("trace.unattributed_ms", unitMS, ms(refWall-stages))
	fillLayers(r)
	return nil
}

func setGov(r *report, g symex.GovStats) {
	r.set("symex.solver_unknowns", unitCount, float64(g.SolverUnknowns))
	r.set("symex.solver_retries", unitCount, float64(g.SolverRetries))
	r.set("symex.concretizations", unitCount, float64(g.Concretizations))
	r.set("symex.quarantines", unitCount, float64(g.Quarantines))
}

func setSolver(r *report, s solver.Stats) {
	r.set("solver.queries", unitCount, float64(s.Queries))
	r.set("solver.cache_hits", unitCount, float64(s.CacheHits))
	r.set("solver.shared_hits", unitCount, float64(s.SharedHits))
	r.set("solver.candidate_sat", unitCount, float64(s.CandidateSat))
	r.set("solver.interval_fast", unitCount, float64(s.IntervalFast))
	r.set("solver.static_prunes", unitCount, float64(s.StaticPrunes))
	r.set("solver.sat_runs", unitCount, float64(s.SATRuns))
	r.set("solver.conflicts", unitCount, float64(s.Conflicts))
	r.set("solver.batches", unitCount, float64(s.Batches))
	r.set("solver.batched_queries", unitCount, float64(s.BatchedQueries))
	if s.Queries > 0 {
		r.set("solver.sat_run_frac", unitRatio, float64(s.SATRuns)/float64(s.Queries))
	}
}

// probe replays a seeded sample of the concolic seedStates' branch
// queries, Feasible(pc[:n-1], pc[n-1]), on two fresh solvers: default
// options, and with the cache, candidate models and interval reasoning
// off (every query reaches bit-blasting and CDCL). Both arms must agree
// wherever both decide.
func probe(r *report, name string, states []*symex.State, seed int64) {
	fastArm := solver.New(solver.Options{})
	satArm := solver.New(solver.Options{DisableCache: true, DisableCandidates: true, DisableIntervals: true})
	idx := rand.New(rand.NewSource(seed)).Perm(len(states))
	if len(idx) > probeStates {
		idx = idx[:probeStates]
	}
	var fastD, satD time.Duration
	var queries, nSat, nUnsat, unknown int
	for _, i := range idx {
		pc := states[i].PathConstraints()
		if len(pc) == 0 {
			continue
		}
		prefix, cond := pc[:len(pc)-1], pc[len(pc)-1]
		start := time.Now()
		v1, _ := fastArm.Feasible(prefix, cond, nil)
		fastD += time.Since(start)
		start = time.Now()
		v2, _ := satArm.Feasible(prefix, cond, nil)
		satD += time.Since(start)
		queries++
		switch {
		case v1 == solver.Unknown || v2 == solver.Unknown:
			unknown++
		case v1 != v2:
			r.check(false, "%s: solver replay arms disagree on seedState %d: %v vs %v", name, i, v1, v2)
		case v1 == solver.Sat:
			nSat++
		default:
			nUnsat++
		}
	}
	note("%s: solver replay of %d seedState queries: %d sat, %d unsat, %d unknown in either arm", name, queries, nSat, nUnsat, unknown)
	r.set("solver.replay_queries", unitCount, float64(queries))
	if queries > 0 {
		r.set("solver.replay_ms_per_query", unitMS, ms(fastD)/float64(queries))
		r.set("solver.replay_sat_ms_per_query", unitMS, ms(satD)/float64(queries))
	}
}

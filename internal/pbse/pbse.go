// Package pbse implements the paper's headline contribution: phase-based
// symbolic execution (Algorithms 1 and 3). A run performs concolic
// execution of a seed input to gather BBVs and seedStates, divides the
// execution into phases by clustering coverage-augmented BBVs, and then
// schedules symbolic execution round-robin across phases, moving on when
// a phase stops covering new code within the current (escalating) time
// period.
package pbse

import (
	"fmt"
	"math/rand"
	"time"

	"pbse/internal/analysis"
	"pbse/internal/analysis/absint"
	"pbse/internal/bugs"
	"pbse/internal/concolic"
	"pbse/internal/expr"
	"pbse/internal/interp"
	"pbse/internal/ir"
	"pbse/internal/phase"
	"pbse/internal/solver"
	"pbse/internal/store"
	"pbse/internal/supervise"
	"pbse/internal/symex"
)

// Options configure a pbSE run.
type Options struct {
	// Budget is the total virtual-time budget in instructions (concolic
	// execution included, mirroring the paper's accounting where c-time
	// and p-time are reported but small).
	Budget int64
	// TimePeriod is the per-phase time slice for the first turn; turn n
	// uses n*TimePeriod (Algorithm 3 line 15). Default Budget/50.
	TimePeriod int64
	// ConcolicInterval is the BBV gathering interval. Default 4096.
	ConcolicInterval int64
	// PhaseOpts tune the phase division; zero value = paper defaults.
	PhaseOpts phase.Options
	// DisableDedup turns off the §III-B3 seedState deduplication (keep
	// only the earliest seedState per fork point) — an ablation switch.
	DisableDedup bool
	// Sequential disables round-robin phase scheduling (ablation): each
	// phase gets one long slice in order.
	Sequential bool
	// TrapOnly schedules only trap phases (plus the phase containing the
	// earliest seedStates); off by default — the paper tests every phase.
	TrapOnly bool
	// DisableStaticHints skips the static analysis pass entirely — no
	// loop/taint slice boosts and no abstract-interpretation facts — an
	// ablation switch.
	DisableStaticHints bool
	// DisableAbsint keeps the static report (and phase annotation) but
	// withholds the abstract-interpretation facts from the executor: no
	// PreCheck fast path and no edge-map pruning. Scheduling is identical
	// with the switch on or off; only solver traffic differs.
	// TestAbsintPrunesWithoutChangingResults runs both arms, and
	// `pbse -no-absint` sets the switch from the command line.
	DisableAbsint bool
	// Seed drives in-phase state selection.
	Seed int64
	// Workers is the number of scheduler workers; 0 means 1, so a
	// zero-value Options gives the same result on every machine. With
	// Workers <= 1 (or Sequential set) the single-goroutine round-robin
	// runs. With Workers > 1 the default is the work-stealing fast mode
	// (worksteal.go, DESIGN.md §12): every phase's frontier is sharded
	// across all workers and coverage and solver verdicts publish
	// asynchronously — highest throughput, but results depend on
	// goroutine interleaving. Set Deterministic for the reproducible
	// island scheduler instead.
	Workers int
	// Deterministic selects the round-barrier island scheduler for
	// Workers > 1 (parallel.go, DESIGN.md §8): phases run as isolated
	// islands, cross-island observation is deferred to round barriers,
	// and the run's coverage, bugs, and GovStats are a pure function of
	// Seed regardless of worker count or goroutine interleaving — at the
	// cost of capping useful workers at the populated-phase count and
	// idling workers at every barrier. Part of the store options
	// signature: a campaign must be resumed in the mode that started it.
	Deterministic bool
	// Store, when non-nil, persists the campaign: a checkpoint at every
	// scheduler round barrier, the cross-run solver verdict cache, and
	// the bug-reproducer corpus (see internal/store and DESIGN.md §9). A
	// killed run loses at most one round of work.
	Store *store.Store
	// Resume continues from Store's checkpoint instead of starting over,
	// skipping the concolic trace and phase analysis. The store's
	// manifest must match this run's program, seed, and options; it is
	// an error when the store holds no checkpoint.
	Resume bool
	// MaxRounds, when positive, stops this process after it has executed
	// that many scheduler rounds, right after the round's checkpoint is
	// written (Result.Interrupted is set). It is the controlled-interrupt
	// hook for resume tests and CI; the campaign itself continues across
	// processes via Resume.
	MaxRounds int64
	// StoreLabel tags the store manifest (e.g. the target driver name).
	StoreLabel string
	// Supervise, when non-nil with Enabled set, runs the campaign under
	// the fault-isolation supervisor (DESIGN.md §11): island turns are
	// contained by recover boundaries and wall-clock watchdogs, faulting
	// islands retry under exponential backoff with degraded budgets, and
	// store failures are tolerated instead of failing the run. When no
	// fault fires a supervised run is bit-identical to an unsupervised
	// one, so the option is (deliberately) not part of the store's
	// options signature. The sequential ablation scheduler ignores it.
	Supervise *supervise.Options
}

// CoveragePoint is one (virtual time, blocks covered) sample.
type CoveragePoint struct {
	Time    int64
	Covered int
}

// PhaseStat summarises the work done in one phase.
type PhaseStat struct {
	ID          int
	Trap        bool
	SeedStates  int
	Steps       int64
	Turns       int64 // scheduler turns granted to this phase
	NewBlocks   int
	Bugs        int
	Quarantines int // states of this phase terminated by the panic boundary
}

// WorkerStat summarises one worker goroutine's activity in a parallel
// run. Which worker runs which phase turn is decided by a work queue, so
// these counters (unlike coverage, bugs, and GovStats) may vary between
// runs of the same seed.
type WorkerStat struct {
	Worker int
	Turns  int64
	Steps  int64
}

// Result is the outcome of a pbSE run.
type Result struct {
	Covered    int
	CTime      int64         // virtual cost of the concolic step
	PTime      time.Duration // wall time of phase analysis
	Division   *phase.Division
	Concolic   *concolic.Result
	Bugs       []*bugs.Report
	PhaseStats []PhaseStat
	Series     []CoveragePoint
	// Hints are the static-analysis results used to annotate phases (nil
	// when DisableStaticHints was set).
	Hints *analysis.StaticHints
	// Report is the full unified static-analysis report (CFG/loop/taint
	// plus abstract-interpretation facts); nil when DisableStaticHints
	// was set.
	Report *analysis.Report
	// Executor exposes the underlying engine for inspection (coverage
	// sets, solver stats).
	Executor *symex.Executor
	// Gov holds the resource-governance counters for the whole run
	// (solver Unknowns and retries, degradations to concretization,
	// quarantined states, memory-pressure evictions), summed across the
	// main executor and every phase worker.
	Gov symex.GovStats
	// Workers is the effective worker count used for phase scheduling.
	Workers int
	// WorkerStats holds per-worker counters (parallel runs only).
	WorkerStats []WorkerStat
	// SolverStats aggregates solver counters across the main executor and
	// every phase worker's solver.
	SolverStats solver.Stats
	// SharedCache reports cross-worker verdict-cache traffic (zero for
	// single-worker runs, which have no shared cache).
	SharedCache solver.ShardStats
	// Resumed says this run continued from a store checkpoint (concolic
	// trace and phase analysis were loaded, not recomputed).
	Resumed bool
	// Interrupted says the run stopped at Options.MaxRounds with budget
	// remaining; the store holds a checkpoint to resume from.
	Interrupted bool
	// Store holds the persistence counters (zero without Options.Store).
	Store store.Stats
	// Supervised says the campaign ran under the fault-isolation
	// supervisor (Options.Supervise).
	Supervised bool
	// Sup holds the supervision counters: faults contained, turns
	// degraded, states requeued or lost. Includes the carry from earlier
	// processes when the campaign was resumed.
	Sup supervise.SupStats
}

// phasePool is the per-phase state pool driven by Algorithm 3.
type phasePool struct {
	info   phase.Phase
	states []*symex.State
	stat   PhaseStat
}

// sliceBoost scales a phase's round-robin time slice by how much of its
// execution mass sits in statically detected input-dependent loops: a
// phase entirely inside such loops gets a double slice, one with none
// keeps the baseline. The boost is damped by the phase's statically
// infeasible-edge mass — a trap whose branches are mostly proven dead
// has less to explore than its fork count suggests. Mild by design —
// scheduling order is untouched.
func (p *phasePool) sliceBoost() float64 {
	f := clamp01(p.info.InputLoopFrac)
	return (1 + f) * (1 - 0.5*clamp01(p.info.InfeasibleEdgeFrac))
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Run executes pbSE on prog with the given seed input (Algorithm 1 with a
// single selected seed; see §III-B4 for the seed-selection heuristic
// implemented in package targets).
func Run(prog *ir.Program, seed []byte, opts Options, exOpts symex.Options) (*Result, error) {
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("pbse: Budget must be positive")
	}
	if opts.TimePeriod == 0 {
		opts.TimePeriod = opts.Budget / 50
		if opts.TimePeriod < 1 {
			opts.TimePeriod = 1
		}
	}
	if exOpts.InputSize == 0 {
		exOpts.InputSize = len(seed)
	}

	seedBytes := make([]byte, exOpts.InputSize)
	copy(seedBytes, seed)

	// Static analysis runs up front — before any executor exists — so the
	// phase annotation, the result report, and (unless ablated) the
	// executor's static pruning facts all come from the same pass. The
	// report is computed whether or not DisableAbsint is set, so phase
	// scheduling is identical in both configurations; the switch gates
	// only the solver-facing facts.
	if !opts.DisableStaticHints && opts.PhaseOpts.Report == nil {
		opts.PhaseOpts.Report = absint.BuildReport(prog)
	}
	if rep := opts.PhaseOpts.Report; rep != nil && !opts.DisableAbsint && exOpts.Static == nil {
		exOpts.Static = rep.Abs
	}

	camp, err := newCampaign(prog, seedBytes, opts)
	if err != nil {
		return nil, err
	}
	sv := newSupervision(opts, exOpts)
	camp.attachSupervision(sv)
	if camp.enabled() {
		// The persistent verdict cache doubles as the solver's shared
		// tier, so Sat/Unsat facts survive across runs of this store.
		if exOpts.SolverOpts.Shared == nil {
			exOpts.SolverOpts.Shared = camp.cache
		}
		// Chaos runs inject store I/O faults through the same injector
		// the executors use; production runs wire nothing.
		if exOpts.FaultInjector != nil {
			camp.st.SetIOInjector(exOpts.FaultInjector)
		}
		if opts.Resume {
			if !camp.st.HasCheckpoint() {
				return nil, fmt.Errorf("pbse: resume requested but store %q has no checkpoint", camp.st.Dir())
			}
			return resumeRun(prog, seedBytes, opts, exOpts, camp, sv)
		}
		if err := camp.beginFresh(seedBytes); err != nil {
			return nil, err
		}
	}

	ex := symex.NewExecutor(prog, exOpts)
	res := &Result{Executor: ex}

	// the seed input satisfies every prefix of the seed path's
	// constraints; keep it as a standing solver candidate
	ex.Solver.AddCandidate(expr.Assignment{ex.InputArr: append([]byte(nil), seedBytes...)})

	// Pick the BBV interval so the seed path yields enough BBVs for
	// k-means (~48): a concrete dry run measures the path length at
	// native speed.
	if opts.ConcolicInterval == 0 {
		dry := interp.New(prog, seed, interp.Options{MaxSteps: opts.Budget / 2}).Run()
		opts.ConcolicInterval = dry.Steps / 48
		if opts.ConcolicInterval < 64 {
			opts.ConcolicInterval = 64
		}
	}

	// Step 1: concolic execution (Algorithm 2).
	con, err := concolic.Run(ex, seed, concolic.Options{
		Interval: opts.ConcolicInterval,
		MaxSteps: opts.Budget / 2,
	})
	if err != nil {
		return nil, fmt.Errorf("pbse: concolic step: %w", err)
	}
	res.Concolic = con
	res.CTime = con.Steps
	res.Series = append(res.Series, CoveragePoint{Time: ex.Clock(), Covered: ex.NumCovered()})

	// Step 2: phase analysis, annotated from the static report so phases
	// dominated by input-dependent loops can get longer slices (damped by
	// their statically dead-edge mass).
	pStart := time.Now()
	if rep := opts.PhaseOpts.Report; rep != nil {
		res.Report = rep
		res.Hints = rep.Hints
	}
	div := phase.Divide(con.BBVs, opts.PhaseOpts)
	res.PTime = time.Since(pStart)
	res.Division = div

	// Map seedStates to phases by fork time and deduplicate by fork point.
	pools := buildPools(div, con, opts)
	camp.wire(ex, res, con, div, pools)

	// Step 3: phase-scheduled symbolic execution (Algorithm 3).
	workers := opts.Workers
	populated := 0
	for _, p := range pools {
		if len(p.states) > 0 {
			populated++
		}
	}
	res.Workers = 1
	rng, src := newCountedRand(opts.Seed + 1)
	switch {
	case opts.Sequential:
		runSequential(ex, pools, opts, rng, res, camp, src, 0)
	case workers <= 1 || (opts.Deterministic && populated < 2) || populated < 1:
		runRoundRobin(ex, pools, opts, rng, res, camp, src, nil, 0, sv)
	case opts.Deterministic:
		// Round-barrier islands: one phase per island, so more workers
		// than populated phases cannot help.
		if workers > populated {
			workers = populated
		}
		res.Workers = workers
		runParallel(prog, ex, pools, seedBytes, workers, opts, exOpts, res, camp, nil, sv)
	default:
		// Work-stealing fast mode: frontiers are sharded across all
		// workers (intra-phase parallelism), so no phase-count cap.
		res.Workers = workers
		runWorkSteal(prog, ex, pools, seedBytes, workers, opts, exOpts, res, camp, nil, sv)
	}

	return finishRun(ex, res, camp, con, div, pools, sv)
}

// finishRun is Run's common tail, shared with the resume path: fold the
// per-pool stats and worker aggregates into res, attribute concolic-era
// bugs to phases, and (for persisted campaigns) write the final manifest
// and reproducers.
func finishRun(ex *symex.Executor, res *Result, camp *campaign,
	con *concolic.Result, div *phase.Division, pools []*phasePool, sv *supervision) (*Result, error) {

	for _, p := range pools {
		res.PhaseStats = append(res.PhaseStats, p.stat)
	}
	res.Covered = ex.NumCovered()
	res.Bugs = ex.Bugs.Reports()
	// runParallel stashes the phase workers' aggregate in res.Gov and
	// res.SolverStats (and the resume path pre-seeds them with the
	// checkpoint's carry); fold in the main executor's share (the whole
	// run, for single-worker schedules).
	gov := ex.Gov()
	gov.Merge(res.Gov)
	res.Gov = gov
	solv := ex.Solver.Stats()
	solv.Accum(res.SolverStats)
	res.SolverStats = solv
	// bugs detected during the concolic step carry no phase yet;
	// attribute them to the phase containing their detection time
	for _, b := range res.Bugs {
		if b.Phase < 0 && b.Time <= con.Start+con.Steps {
			b.Phase = div.PhaseOfTime(con.BBVs, b.Time-con.Start)
		}
	}
	if camp != nil {
		res.Sup = camp.carrySup
	}
	if sv.supervised() {
		res.Supervised = true
		res.Sup.Merge(sv.sup.Stats())
	}
	return res, camp.finish(res)
}

// buildPools assigns seedStates to phases (by the time of their fork
// point) and applies the §III-B3 dedup: keep the earliest seedState per
// fork point.
func buildPools(div *phase.Division, con *concolic.Result, opts Options) []*phasePool {
	pools := make([]*phasePool, len(div.Phases))
	for i, p := range div.Phases {
		pools[i] = &phasePool{info: p, stat: PhaseStat{ID: p.ID, Trap: p.Trap}}
	}
	if len(pools) == 0 {
		return nil
	}

	states := con.SeedStates
	if !opts.DisableDedup {
		earliest := make(map[[2]int]*symex.State)
		for _, s := range states {
			key := [2]int{s.SeedForkBlockID, s.SeedForkIdx}
			if old, ok := earliest[key]; !ok || s.ForkTime < old.ForkTime {
				earliest[key] = s
			}
		}
		dedup := make([]*symex.State, 0, len(earliest))
		for _, s := range states {
			key := [2]int{s.SeedForkBlockID, s.SeedForkIdx}
			if earliest[key] == s {
				dedup = append(dedup, s)
			}
		}
		states = dedup
	}

	for _, s := range states {
		pi := div.PhaseOfTime(con.BBVs, s.ForkTime-con.Start)
		if pi < 0 {
			pi = 0
		}
		pools[pi].states = append(pools[pi].states, s)
		pools[pi].stat.SeedStates++
	}

	if opts.TrapOnly {
		var kept []*phasePool
		for _, p := range pools {
			if p.info.Trap || (len(kept) == 0 && len(p.states) > 0) {
				kept = append(kept, p)
			}
		}
		if len(kept) > 0 {
			pools = kept
		}
	}
	return pools
}

// runRoundRobin is Algorithm 3: cycle phases, escalating the time period
// each full turn, breaking out of a phase once it stops covering new code
// past its slice. A barrier fires at every multiple of the live-phase
// count — there the campaign (if any) checkpoints, and MaxRounds can stop
// the process with the checkpoint already durable. The resume path passes
// the checkpointed live order and turn counter; fresh runs pass (nil, 0).
// Under supervision each turn runs inside the inline recover/ladder
// containment (supervision.turnW1); the kill-round fault fires after a
// full cycle's turns, before that cycle's checkpoint.
func runRoundRobin(ex *symex.Executor, pools []*phasePool, opts Options, rng *rand.Rand,
	res *Result, camp *campaign, src *countedSource, live []*phasePool, startI int64,
	sv *supervision) {

	if live == nil {
		live = make([]*phasePool, 0, len(pools))
		for _, p := range pools {
			if len(p.states) > 0 {
				live = append(live, p)
			}
		}
	}
	i := startI
	lastBarrier := int64(-1)
	var executed int64
	for len(live) > 0 && ex.Clock() < opts.Budget {
		if i%int64(len(live)) == 0 && i != lastBarrier {
			lastBarrier = i
			if i > startI {
				executed++
				camp.bumpRound()
				sv.kill(executed)
			}
			camp.barrierW1(modeRoundRobin, i, live, src)
			if opts.MaxRounds > 0 && executed >= opts.MaxRounds {
				res.Interrupted = true
				return
			}
		}
		phaseNum := int(i % int64(len(live)))
		turnNum := i/int64(len(live)) + 1
		pool := live[phaseNum]
		if len(pool.states) == 0 {
			live = append(live[:phaseNum], live[phaseNum+1:]...)
			continue
		}
		turnStart := ex.Clock()
		slice := int64(float64(turnNum*opts.TimePeriod) * pool.sliceBoost())
		if sv.supervised() {
			sv.turnW1(ex, pool, opts, rng, res, turnStart, slice)
		} else {
			runPhaseTurn(ex, pool, opts, rng, res, func() bool {
				return ex.Clock()-turnStart > slice
			})
		}
		pool.stat.Turns++
		i++
	}
	// Exit checkpoint: resuming a finished campaign reconstructs this
	// position and immediately falls through again.
	camp.barrierW1(modeRoundRobin, i, live, src)
}

// runSequential is the scheduling ablation: each phase once, in order,
// with an equal share of the remaining budget. The barrier (and
// checkpoint) sits before each phase's single slice; NextTurn is the
// index of the phase about to run.
func runSequential(ex *symex.Executor, pools []*phasePool, opts Options, rng *rand.Rand,
	res *Result, camp *campaign, src *countedSource, startIdx int) {

	var executed int64
	for idx := startIdx; idx < len(pools); idx++ {
		pool := pools[idx]
		if len(pool.states) == 0 {
			continue
		}
		camp.barrierW1(modeSequential, int64(idx), seqLive(pools, idx), src)
		if opts.MaxRounds > 0 && executed >= opts.MaxRounds {
			res.Interrupted = true
			return
		}
		remainingPhases := 0
		for _, p := range pools[idx:] {
			if len(p.states) > 0 {
				remainingPhases++
			}
		}
		slice := (opts.Budget - ex.Clock()) / int64(remainingPhases)
		turnStart := ex.Clock()
		runPhaseTurn(ex, pool, opts, rng, res, func() bool {
			return ex.Clock()-turnStart > slice
		})
		pool.stat.Turns++
		executed++
		camp.bumpRound()
		if ex.Clock() >= opts.Budget {
			break
		}
	}
	camp.barrierW1(modeSequential, int64(len(pools)), nil, src)
}

// seqLive lists the not-yet-visited populated pools, for the sequential
// checkpoint's live set.
func seqLive(pools []*phasePool, idx int) []*phasePool {
	var out []*phasePool
	for _, p := range pools[idx:] {
		if len(p.states) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// runPhaseTurn is the inner loop of Algorithm 3 (lines 11-18): step states
// of one phase until the pool drains or the slice expires without new
// coverage.
func runPhaseTurn(ex *symex.Executor, pool *phasePool, opts Options, rng *rand.Rand, res *Result, sliceOver func() bool) {
	for len(pool.states) > 0 && ex.Clock() < opts.Budget {
		// selectState: uniform random among the pool (deterministic rng)
		idx := rng.Intn(len(pool.states))
		st := pool.states[idx]
		if st.Terminated() {
			pool.states[idx] = pool.states[len(pool.states)-1]
			pool.states = pool.states[:len(pool.states)-1]
			continue
		}
		r := ex.StepBlock(st)
		pool.stat.Steps++
		// updateStates: forked states stay in this phase's pool
		pool.states = append(pool.states, r.Added...)
		if r.Terminated {
			if r.Reason == symex.TermQuarantined {
				pool.stat.Quarantines++
			}
			pool.states[idx] = pool.states[len(pool.states)-1]
			pool.states = pool.states[:len(pool.states)-1]
		}
		if r.NewCover {
			pool.stat.NewBlocks++
			res.Series = append(res.Series, CoveragePoint{Time: ex.Clock(), Covered: ex.NumCovered()})
		}
		if r.Bug != nil {
			r.Bug.Phase = pool.info.ID
			pool.stat.Bugs++
		}
		if sliceOver() && !r.NewCover {
			return // Algorithm 3 line 15
		}
	}
}

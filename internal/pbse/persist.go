package pbse

// Campaign persistence (see internal/store and DESIGN.md §9). A campaign
// wraps one pbSE run's connection to a store directory: it writes a
// checkpoint at every scheduler round barrier, flushes the persistent
// solver verdict cache, and maintains the manifest and bug-reproducer
// corpus. The resume path rebuilds the executors (and, for parallel
// runs, the phase islands) from the checkpoint instead of re-running
// concolic tracing and phase analysis.
//
// All campaign methods are nil-safe: a run without Options.Store carries
// a nil *campaign and every hook is a no-op, keeping the schedulers'
// hot paths free of store conditionals.

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"pbse/internal/bugs"
	"pbse/internal/concolic"
	"pbse/internal/expr"
	"pbse/internal/ir"
	"pbse/internal/phase"
	"pbse/internal/solver"
	"pbse/internal/store"
	"pbse/internal/supervise"
	"pbse/internal/symex"
)

// Scheduler modes recorded in checkpoints.
const (
	modeRoundRobin = "roundrobin"
	modeSequential = "sequential"
	modeParallel   = "parallel"
	modeWorkSteal  = "worksteal"
)

// countedSource wraps the deterministic rand source with a draw counter,
// so a resumed run can fast-forward its rng to the checkpointed position.
// Every rand.Rand operation the schedulers use (Intn) costs exactly one
// source draw, and wrapping does not perturb the stream: rand.Rand takes
// the same Source64 path either way.
type countedSource struct {
	src   rand.Source64
	draws int64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(s int64) { c.src.Seed(s) }

// skip advances the underlying stream n draws without counting them
// (they were already counted in the run being resumed).
func (c *countedSource) skip(n int64) {
	for i := int64(0); i < n; i++ {
		c.src.Int63()
	}
	c.draws = n
}

func newCountedRand(seed int64) (*rand.Rand, *countedSource) {
	src := &countedSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// campaign is the persistence context of one Run (nil when no store).
type campaign struct {
	st    *store.Store
	cache *store.SolverCache
	opts  Options

	manifest *store.Manifest

	// carry* hold the aggregate counters of all work done before this
	// process (zero for fresh runs); barrier checkpoints store carry +
	// this process's counters.
	carryGov     symex.GovStats
	carrySolver  solver.Stats
	carryWorkers []store.WorkerStat
	carrySup     supervise.SupStats

	// sv is the run's supervision context (nil when unsupervised).
	// Supervised campaigns tolerate store failures — logged and counted
	// in SupStats.StoreFaults — instead of surfacing them from Run.
	sv *supervision

	roundsDone int64

	// wired refs for checkpoint building
	ex    *symex.Executor
	res   *Result
	con   *concolic.Result
	div   *phase.Division
	pools []*phasePool

	err error // first store failure; surfaced by finish
}

// newCampaign opens the run's store connection, or returns nil when no
// store is configured.
func newCampaign(prog *ir.Program, seedBytes []byte, opts Options) (*campaign, error) {
	if opts.Store == nil {
		return nil, nil
	}
	cache, err := opts.Store.SolverCache()
	if err != nil {
		return nil, err
	}
	return &campaign{
		st:    opts.Store,
		cache: cache,
		opts:  opts,
		manifest: &store.Manifest{
			Label:      opts.StoreLabel,
			Program:    programSig(prog),
			SeedSHA256: store.SeedSig(seedBytes),
			InputSize:  len(seedBytes),
			OptionsSig: optionsSig(opts),
			Status:     store.StatusRunning,
		},
	}, nil
}

func (c *campaign) enabled() bool { return c != nil && c.st != nil }

func (c *campaign) fail(err error) {
	if c.sv.supervised() {
		log.Printf("pbse: store failure tolerated: %v", err)
		c.sv.sup.Add(supervise.SupStats{StoreFaults: 1})
		return
	}
	if c.err == nil {
		c.err = err
	}
}

// attachSupervision hands the campaign the run's supervision context
// (before any barrier can fire).
func (c *campaign) attachSupervision(sv *supervision) {
	if c != nil {
		c.sv = sv
	}
}

// supTotal is the supervision carry plus this process's live counters —
// what barrier checkpoints persist as CarrySup.
func (c *campaign) supTotal() supervise.SupStats {
	s := c.carrySup
	if c.sv.supervised() {
		s.Merge(c.sv.sup.Stats())
	}
	return s
}

// beginFresh marks the store as owned by this campaign before any work
// runs, saving the seed so replays and audits can reconstruct the run.
func (c *campaign) beginFresh(seedBytes []byte) error {
	if err := c.st.WriteSeed(seedBytes); err != nil {
		return err
	}
	return c.st.WriteManifest(c.manifest)
}

// wire hands the campaign the objects the barrier checkpoints read.
func (c *campaign) wire(ex *symex.Executor, res *Result, con *concolic.Result,
	div *phase.Division, pools []*phasePool) {
	if c == nil {
		return
	}
	c.ex = ex
	c.res = res
	c.con = con
	c.div = div
	c.pools = pools
}

func (c *campaign) bumpRound() {
	if c != nil {
		c.roundsDone++
	}
}

// base builds the checkpoint fields common to every scheduler.
func (c *campaign) base(mode string) *store.Checkpoint {
	ck := &store.Checkpoint{
		Mode:        mode,
		RoundsDone:  c.roundsDone,
		NextStateID: c.ex.NextStateID(),
		Clock:       c.ex.Clock(),
		CTime:       c.res.CTime,
		PTimeNanos:  int64(c.res.PTime),
		ConStart:    c.con.Start,
		ConSteps:    c.con.Steps,
		ConExited:   c.con.Exited,
		BBVs:        c.con.BBVs,
		Division:    c.div,
	}
	for _, p := range c.res.Series {
		ck.Series = append(ck.Series, store.CoveragePoint{Time: p.Time, Covered: p.Covered})
	}
	for _, p := range c.pools {
		s := p.stat
		ck.PhaseStats = append(ck.PhaseStats, store.PhaseStat{
			ID: s.ID, Trap: s.Trap, SeedStates: s.SeedStates, Steps: s.Steps,
			Turns: s.Turns, NewBlocks: s.NewBlocks, Bugs: s.Bugs, Quarantines: s.Quarantines,
		})
	}
	return ck
}

// persist writes the checkpoint and its companions: solver verdicts are
// flushed to the cross-run cache, new bug reproducers enter the corpus,
// and the manifest records progress. Store failures do not stop the
// campaign — the first one is remembered and surfaced when Run returns.
func (c *campaign) persist(ck *store.Checkpoint) {
	if err := c.st.WriteCheckpoint(ck); err != nil {
		c.fail(err)
		return
	}
	if err := c.cache.Flush(); err != nil {
		c.fail(err)
	}
	for _, b := range ck.Bugs {
		if _, err := c.st.AddReproducer(b); err != nil {
			c.fail(err)
		}
	}
	c.manifest.Rounds = c.roundsDone
	c.manifest.Covered = len(ck.Covered)
	c.manifest.Bugs = len(ck.Bugs)
	if err := c.st.WriteManifest(c.manifest); err != nil {
		c.fail(err)
	}
}

// barrierW1 checkpoints a single-worker scheduler at a round barrier:
// one state section holding every populated pool, plus the scheduler
// position (nextTurn, rng draws, live order).
func (c *campaign) barrierW1(mode string, nextTurn int64, live []*phasePool, src *countedSource) {
	if !c.enabled() {
		return
	}
	ck := c.base(mode)
	ck.NextTurn = nextTurn
	ck.RNGDraws = src.draws
	ck.Covered = c.ex.CoveredBlocks()
	ck.Bugs = c.ex.Bugs.Reports()
	ck.Quarantine = c.ex.QuarantineRecords()
	gov := c.carryGov
	gov.Merge(c.ex.Gov())
	ck.CarryGov = gov
	sol := c.carrySolver
	sol.Accum(c.ex.Solver.Stats())
	ck.CarrySolver = sol
	ck.CarryWorkers = c.carryWorkers
	ck.CarrySup = c.supTotal()
	for _, p := range live {
		ck.LiveIDs = append(ck.LiveIDs, p.info.ID)
	}
	var sec store.StateSection
	for _, p := range c.pools {
		if len(p.states) == 0 {
			continue
		}
		l := store.StateList{PhaseID: p.info.ID}
		for _, s := range p.states {
			l.States = append(l.States, c.ex.Snapshot(s))
		}
		sec.Lists = append(sec.Lists, l)
	}
	ck.Sections = []store.StateSection{sec}
	c.persist(ck)
}

// barrierParallel checkpoints the round-barrier scheduler: one state
// section per live island (with its clock, rng draws, and fork-ID
// position), and carry aggregates covering every island ever built —
// pruned islands keep contributing their bugs and counters even though
// their states are gone.
func (c *campaign) barrierParallel(nextRound int64, isles, live []*island,
	deadClock int64, covered []int, ws []WorkerStat) {
	if !c.enabled() {
		return
	}
	ck := c.base(modeParallel)
	ck.NextTurn = nextRound
	ck.DeadClock = deadClock
	ck.Covered = covered

	col := bugs.NewCollector()
	for _, r := range c.ex.Bugs.Reports() {
		col.Add(r)
	}
	gov := c.carryGov
	gov.Merge(c.ex.Gov())
	sol := c.carrySolver
	sol.Accum(c.ex.Solver.Stats())
	ck.Quarantine = append([]symex.QuarantineRecord(nil), c.ex.QuarantineRecords()...)
	for _, is := range isles {
		for _, r := range is.ex.Bugs.Reports() {
			col.Add(r)
		}
		gov.Merge(is.ex.Gov())
		sol.Accum(is.ex.Solver.Stats())
		ck.Quarantine = append(ck.Quarantine, is.ex.QuarantineRecords()...)
	}
	ck.Bugs = col.Reports()
	ck.CarryGov = gov
	ck.CarrySolver = sol
	ck.CarryWorkers = mergeWorkerCarry(c.carryWorkers, ws)
	ck.CarrySup = c.supTotal()

	for _, is := range live {
		ck.LiveIDs = append(ck.LiveIDs, is.pool.info.ID)
		l := store.StateList{
			PhaseID:     is.pool.info.ID,
			Clock:       is.ex.Clock(),
			RNGDraws:    is.src.draws,
			NextStateID: is.ex.NextStateID(),
		}
		for _, s := range is.states {
			l.States = append(l.States, is.ex.Snapshot(s))
		}
		// The island's private ledger: its per-phase bug counter only
		// advances on sites new to this island, so resume must restore
		// exactly this set (not the merged ck.Bugs) to keep counting
		// identical.
		l.Bugs = is.ex.Bugs.Reports()
		ck.Sections = append(ck.Sections, store.StateSection{Lists: []store.StateList{l}})
	}
	c.persist(ck)
}

// barrierWorkSteal checkpoints the work-stealing scheduler at a
// rendezvous: every active worker is parked (or exited), so all their
// executors are quiescent. One state section per worker still holding
// states, with a list per populated phase shard; states are re-dealt on
// resume, so no per-worker clocks or rng positions are recorded — the
// workers' total virtual time rides in DeadClock and the coverage
// board's position in Epoch (checkpoint format v3). Abandoned workers
// are excluded: their executors may still be racing a runaway turn.
func (c *campaign) barrierWorkSteal(sh *wsShared) {
	if !c.enabled() {
		return
	}
	ck := c.base(modeWorkSteal)
	ck.NextTurn = sh.rounds
	ck.DeadClock = sh.vtime() - c.ex.Clock()
	ck.Epoch = sh.board.epoch.Load()
	ck.Covered = sh.board.snapshot()

	col := bugs.NewCollector()
	for _, r := range c.ex.Bugs.Reports() {
		col.Add(r)
	}
	gov := c.carryGov
	gov.Merge(c.ex.Gov())
	sol := c.carrySolver
	sol.Accum(c.ex.Solver.Stats())
	ck.Quarantine = append([]symex.QuarantineRecord(nil), c.ex.QuarantineRecords()...)

	// The main executor's PhaseStats miss the workers' scratch counters
	// (they merge into the pools only when the run ends); fold them in
	// here so the checkpointed stats match what a finished run reports.
	ck.PhaseStats = ck.PhaseStats[:0]
	merged := make([]PhaseStat, len(c.pools))
	for i, p := range c.pools {
		merged[i] = p.stat
	}
	ws := make([]WorkerStat, 0, len(sh.workers))
	liveID := make(map[int]bool)
	var maxNextID int
	for _, w := range sh.workers {
		if w.abandoned.Load() {
			continue
		}
		ws = append(ws, w.stats)
		for _, r := range w.ex.Bugs.Reports() {
			col.Add(r)
		}
		gov.Merge(w.ex.Gov())
		sol.Accum(w.ex.Solver.Stats())
		ck.Quarantine = append(ck.Quarantine, w.ex.QuarantineRecords()...)
		if n := w.ex.NextStateID(); n > maxNextID {
			maxNextID = n
		}
		for pi := range merged {
			s := w.pstats[pi]
			merged[pi].Steps += s.Steps
			merged[pi].Turns += s.Turns
			merged[pi].NewBlocks += s.NewBlocks
			merged[pi].Bugs += s.Bugs
			merged[pi].Quarantines += s.Quarantines
		}
	}
	for _, s := range merged {
		ck.PhaseStats = append(ck.PhaseStats, store.PhaseStat{
			ID: s.ID, Trap: s.Trap, SeedStates: s.SeedStates, Steps: s.Steps,
			Turns: s.Turns, NewBlocks: s.NewBlocks, Bugs: s.Bugs, Quarantines: s.Quarantines,
		})
	}
	if maxNextID > ck.NextStateID {
		ck.NextStateID = maxNextID
	}
	ck.Bugs = col.Reports()
	ck.CarryGov = gov
	ck.CarrySolver = sol
	ck.CarryWorkers = mergeWorkerCarry(c.carryWorkers, ws)
	ck.CarrySup = c.supTotal()

	for _, w := range sh.workers {
		if w.abandoned.Load() {
			continue
		}
		var sec store.StateSection
		for pi := range w.fronts {
			var l store.StateList
			for _, s := range w.fronts[pi].states {
				if s.Terminated() {
					continue
				}
				l.States = append(l.States, w.ex.Snapshot(s))
			}
			if len(l.States) == 0 {
				continue
			}
			l.PhaseID = c.pools[pi].info.ID
			l.NextStateID = w.ex.NextStateID()
			sec.Lists = append(sec.Lists, l)
			liveID[l.PhaseID] = true
		}
		if len(sec.Lists) > 0 {
			ck.Sections = append(ck.Sections, sec)
		}
	}
	for _, p := range c.pools {
		if liveID[p.info.ID] {
			ck.LiveIDs = append(ck.LiveIDs, p.info.ID)
		}
	}
	c.persist(ck)
}

// mergeWorkerStats folds the checkpointed per-worker carry into this
// process's counters for Result.WorkerStats (worker counts may differ
// across processes; indices are matched where present).
func (c *campaign) mergeWorkerStats(ws []WorkerStat) []WorkerStat {
	if !c.enabled() || len(c.carryWorkers) == 0 {
		return ws
	}
	merged := mergeWorkerCarry(c.carryWorkers, ws)
	out := make([]WorkerStat, len(merged))
	for i, m := range merged {
		out[i] = WorkerStat{Worker: m.Worker, Turns: m.Turns, Steps: m.Steps}
	}
	return out
}

func mergeWorkerCarry(carry []store.WorkerStat, ws []WorkerStat) []store.WorkerStat {
	out := append([]store.WorkerStat(nil), carry...)
	for _, w := range ws {
		placed := false
		for i := range out {
			if out[i].Worker == w.Worker {
				out[i].Turns += w.Turns
				out[i].Steps += w.Steps
				placed = true
				break
			}
		}
		if !placed {
			out = append(out, store.WorkerStat{Worker: w.Worker, Turns: w.Turns, Steps: w.Steps})
		}
	}
	return out
}

// finish closes the campaign: flush any verdicts since the last barrier,
// store reproducers for every bug, and mark the manifest complete unless
// the run was interrupted (an interrupted run's checkpoint is already
// durable and the manifest stays "running").
func (c *campaign) finish(res *Result) error {
	if !c.enabled() {
		return nil
	}
	if err := c.cache.Flush(); err != nil {
		c.fail(err)
	}
	for _, b := range res.Bugs {
		if _, err := c.st.AddReproducer(b); err != nil {
			c.fail(err)
		}
	}
	if !res.Interrupted {
		c.manifest.Status = store.StatusComplete
		c.manifest.Rounds = c.roundsDone
		c.manifest.Covered = res.Covered
		c.manifest.Bugs = len(res.Bugs)
		if err := c.st.WriteManifest(c.manifest); err != nil {
			c.fail(err)
		}
	}
	res.Store = c.st.Stats()
	return c.err
}

// programSig is the manifest's target signature: cheap to compute, and
// any rebuild that changes block numbering (which checkpoints depend on)
// changes it.
func programSig(prog *ir.Program) string {
	return fmt.Sprintf("%s/blocks=%d/instrs=%d", prog.Name, len(prog.AllBlocks), prog.NumInstrs)
}

// optionsSig captures every option that shapes the campaign trajectory.
// Workers and MaxRounds are deliberately absent: within one scheduling
// mode the worker count does not change results (DESIGN.md §8), and
// MaxRounds only decides where this process stops. Supervise is absent
// too — fault-free supervision is inert (DESIGN.md §11), so a
// supervised process may resume an unsupervised store and vice versa.
// Deterministic IS part of the signature: the two scheduler families
// take different trajectories and write different checkpoint modes, so
// a fast-mode store must not be resumed deterministically or vice
// versa. ConcolicInterval is the user-specified value (0 when derived
// from the dry run, which is itself deterministic).
func optionsSig(opts Options) string {
	return fmt.Sprintf("budget=%d tp=%d ci=%d dedup=%t seq=%t trap=%t nohints=%t noabs=%t seed=%d det=%t",
		opts.Budget, opts.TimePeriod, opts.ConcolicInterval, opts.DisableDedup,
		opts.Sequential, opts.TrapOnly, opts.DisableStaticHints, opts.DisableAbsint, opts.Seed,
		opts.Deterministic)
}

// inputResolver maps the checkpoint's serialised arrays onto ex's input
// array — the only array pbSE states reference.
func inputResolver(ex *symex.Executor) store.ArrayResolver {
	return func(name string, size int) (*expr.Array, error) {
		if name == ex.InputArr.Name && size == ex.InputArr.Size {
			return ex.InputArr, nil
		}
		return nil, fmt.Errorf("pbse: resume: unknown array %q (size %d, input is %q size %d)",
			name, size, ex.InputArr.Name, ex.InputArr.Size)
	}
}

// parallelResume carries the rebuilt islands into runParallel.
type parallelResume struct {
	round     int64
	deadClock int64
	isles     []*island
}

// resumeRun continues a checkpointed campaign: validate the store
// against this run's identity, rebuild the executor(s) and pools from
// the checkpoint, fast-forward the rngs, and re-enter the checkpointed
// scheduler. Concolic tracing and phase analysis are skipped — their
// results are part of the checkpoint.
func resumeRun(prog *ir.Program, seedBytes []byte, opts Options, exOpts symex.Options,
	camp *campaign, sv *supervision) (*Result, error) {

	m, err := camp.st.ReadManifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("pbse: resume: store %s has a checkpoint but no manifest", camp.st.Dir())
	}
	want := camp.manifest
	if m.Program != want.Program || m.SeedSHA256 != want.SeedSHA256 ||
		m.InputSize != want.InputSize || m.OptionsSig != want.OptionsSig {
		return nil, fmt.Errorf("pbse: resume: store %s belongs to a different campaign (program %q seed %s options %q; this run is %q %s %q)",
			camp.st.Dir(), m.Program, m.SeedSHA256[:8], m.OptionsSig,
			want.Program, want.SeedSHA256[:8], want.OptionsSig)
	}
	m.Status = store.StatusRunning
	camp.manifest = m

	cf, err := camp.st.ReadCheckpoint()
	if err != nil {
		return nil, err
	}
	ck := cf.Common()
	camp.roundsDone = ck.RoundsDone
	camp.carryGov = ck.CarryGov
	camp.carrySolver = ck.CarrySolver
	camp.carryWorkers = ck.CarryWorkers
	camp.carrySup = ck.CarrySup

	ex := symex.NewExecutor(prog, exOpts)
	ex.SetClock(ck.Clock)
	ex.AbsorbCoverage(ck.Covered)
	for _, b := range ck.Bugs {
		ex.Bugs.Add(b)
	}
	ex.AdoptQuarantineRecords(ck.Quarantine)
	ex.Solver.AddCandidate(expr.Assignment{ex.InputArr: append([]byte(nil), seedBytes...)})

	con := &concolic.Result{BBVs: ck.BBVs, Start: ck.ConStart, Steps: ck.ConSteps, Exited: ck.ConExited}
	res := &Result{
		Executor: ex,
		Resumed:  true,
		Workers:  1,
		CTime:    ck.CTime,
		PTime:    time.Duration(ck.PTimeNanos),
		Division: ck.Division,
		Concolic: con,
		Gov:      ck.CarryGov,
	}
	res.SolverStats = ck.CarrySolver
	if rep := opts.PhaseOpts.Report; rep != nil {
		res.Report = rep
		res.Hints = rep.Hints
	}
	for _, p := range ck.Series {
		res.Series = append(res.Series, CoveragePoint{Time: p.Time, Covered: p.Covered})
	}

	pools := restorePools(ck)
	byID := make(map[int]*phasePool, len(pools))
	for _, p := range pools {
		byID[p.stat.ID] = p
	}
	camp.wire(ex, res, con, ck.Division, pools)

	switch ck.Mode {
	case modeWorkSteal:
		// Work-stealing checkpoints are re-dealt, not rebuilt: decode
		// every worker section's states into the main executor, group
		// them by phase, and let runWorkSteal shard them across this
		// process's workers from scratch. No bit-identity is promised
		// across the kill (fast mode never promises it); coverage, the
		// bug ledger, and carry counters continue exactly.
		maxNext := ck.NextStateID
		for i := 0; i < cf.NumSections(); i++ {
			lists, err := cf.DecodeSection(i, ex.Ctx, inputResolver(ex))
			if err != nil {
				return nil, err
			}
			for _, l := range lists {
				p := byID[l.PhaseID]
				if p == nil {
					return nil, fmt.Errorf("pbse: resume: checkpoint references unknown phase %d", l.PhaseID)
				}
				for _, snap := range l.States {
					st, err := ex.RestoreState(snap)
					if err != nil {
						return nil, err
					}
					p.states = append(p.states, st)
				}
				if l.NextStateID > maxNext {
					maxNext = l.NextStateID
				}
			}
		}
		ex.SetStateIDBase(maxNext)
		workers := opts.Workers
		if workers < 1 {
			workers = 1
		}
		res.Workers = workers
		rp := &wsResume{deadClock: ck.DeadClock, epoch: ck.Epoch, rounds: ck.NextTurn}
		runWorkSteal(prog, ex, pools, seedBytes, workers, opts, exOpts, res, camp, rp, sv)
	case modeParallel:
		rp, workers, err := rebuildIslands(prog, cf, ck, byID, seedBytes, opts, exOpts, camp)
		if err != nil {
			return nil, err
		}
		res.Workers = workers
		runParallel(prog, ex, pools, seedBytes, workers, opts, exOpts, res, camp, rp, sv)
	case modeRoundRobin, modeSequential:
		if cf.NumSections() != 1 {
			return nil, fmt.Errorf("pbse: resume: %s checkpoint has %d state sections (want 1)", ck.Mode, cf.NumSections())
		}
		lists, err := cf.DecodeSection(0, ex.Ctx, inputResolver(ex))
		if err != nil {
			return nil, err
		}
		for _, l := range lists {
			p := byID[l.PhaseID]
			if p == nil {
				return nil, fmt.Errorf("pbse: resume: checkpoint references unknown phase %d", l.PhaseID)
			}
			for _, snap := range l.States {
				st, err := ex.RestoreState(snap)
				if err != nil {
					return nil, err
				}
				p.states = append(p.states, st)
			}
		}
		ex.SetStateIDBase(ck.NextStateID)
		rng, src := newCountedRand(opts.Seed + 1)
		src.skip(ck.RNGDraws)
		if ck.Mode == modeSequential {
			runSequential(ex, pools, opts, rng, res, camp, src, int(ck.NextTurn))
		} else {
			live := make([]*phasePool, 0, len(ck.LiveIDs))
			for _, id := range ck.LiveIDs {
				p := byID[id]
				if p == nil {
					return nil, fmt.Errorf("pbse: resume: live phase %d not in checkpoint pools", id)
				}
				live = append(live, p)
			}
			runRoundRobin(ex, pools, opts, rng, res, camp, src, live, ck.NextTurn, sv)
		}
	default:
		return nil, fmt.Errorf("pbse: resume: unknown scheduler mode %q", ck.Mode)
	}

	return finishRun(ex, res, camp, con, ck.Division, pools, sv)
}

// restorePools rebuilds the pool skeletons (info + accumulated stats) in
// checkpoint order; states are filled in by the mode-specific decode.
func restorePools(ck *store.Checkpoint) []*phasePool {
	infoByID := make(map[int]phase.Phase)
	if ck.Division != nil {
		for _, p := range ck.Division.Phases {
			infoByID[p.ID] = p
		}
	}
	pools := make([]*phasePool, 0, len(ck.PhaseStats))
	for _, s := range ck.PhaseStats {
		pools = append(pools, &phasePool{
			info: infoByID[s.ID],
			stat: PhaseStat{
				ID: s.ID, Trap: s.Trap, SeedStates: s.SeedStates, Steps: s.Steps,
				Turns: s.Turns, NewBlocks: s.NewBlocks, Bugs: s.Bugs, Quarantines: s.Quarantines,
			},
		})
	}
	return pools
}

// rebuildIslands reconstructs the live phase islands from the
// checkpoint's state sections (section i belongs to LiveIDs[i]): a fresh
// private executor per island, states decoded into its context, clock
// and rng fast-forwarded to the barrier position.
func rebuildIslands(prog *ir.Program, cf *store.CheckpointFile, ck *store.Checkpoint,
	byID map[int]*phasePool, seedBytes []byte, opts Options, exOpts symex.Options,
	camp *campaign) (*parallelResume, int, error) {

	if cf.NumSections() != len(ck.LiveIDs) {
		return nil, 0, fmt.Errorf("pbse: resume: %d state sections for %d live islands",
			cf.NumSections(), len(ck.LiveIDs))
	}
	rp := &parallelResume{round: ck.NextTurn, deadClock: ck.DeadClock}
	for i := 0; i < cf.NumSections(); i++ {
		id := ck.LiveIDs[i]
		pool := byID[id]
		if pool == nil {
			return nil, 0, fmt.Errorf("pbse: resume: live island %d not in checkpoint pools", id)
		}
		po := exOpts
		po.FaultInjector = exOpts.FaultInjector.Child(int64(id))
		po.SolverOpts.Injector = nil
		inj := po.FaultInjector
		cache := &roundCache{shared: camp.cache}
		po.SolverOpts.Shared = cache
		pex := symex.NewExecutor(prog, po)
		pex.Solver.AddCandidate(expr.Assignment{pex.InputArr: append([]byte(nil), seedBytes...)})
		pex.AbsorbCoverage(ck.Covered)

		lists, err := cf.DecodeSection(i, pex.Ctx, inputResolver(pex))
		if err != nil {
			return nil, 0, err
		}
		if len(lists) != 1 || lists[0].PhaseID != id {
			return nil, 0, fmt.Errorf("pbse: resume: island section %d malformed", i)
		}
		l := lists[0]
		is := &island{pool: pool, ex: pex, cache: cache, inj: inj}
		for _, b := range l.Bugs {
			pex.Bugs.Add(b)
		}
		for _, snap := range l.States {
			st, err := pex.RestoreState(snap)
			if err != nil {
				return nil, 0, err
			}
			is.states = append(is.states, st)
		}
		pex.SetStateIDBase(l.NextStateID)
		pex.SetClock(l.Clock)
		is.rng, is.src = newCountedRand(opts.Seed + 1 + int64(id)*0x9e3779b9)
		is.src.skip(l.RNGDraws)
		rp.isles = append(rp.isles, is)
	}

	workers := opts.Workers
	if workers > len(rp.isles) {
		workers = len(rp.isles)
	}
	if workers < 1 {
		workers = 1
	}
	return rp, workers, nil
}

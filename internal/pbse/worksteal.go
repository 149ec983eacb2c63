package pbse

// Work-stealing fast-mode scheduler (DESIGN.md §12). The round-barrier
// scheduler (parallel.go, kept as Options.Deterministic) parallelises
// across phases: each phase is an island, a round runs one turn per
// island, and all cross-island observation is deferred to the barrier.
// That design buys bit-reproducibility but caps the worker count at the
// populated-phase count and leaves workers idle whenever islands finish
// their turns at different times.
//
// The work-stealing scheduler parallelises across *states* instead.
// Every phase's frontier is dealt round-robin over all W workers
// (phase.Shard), so each worker drives its own private Algorithm 3 —
// round-robin over its shards of every phase, escalating slices, break
// on a slice without new cover — and no phase-count cap applies. Three
// mechanisms replace the barrier:
//
//   - Epoch-based coverage publication: a shared coverBoard holds the
//     global coverage bitmap in CAS-updated words plus an epoch counter.
//     Workers publish newly covered blocks as they find them and absorb
//     foreign bits at turn boundaries (skipped cheaply when the epoch is
//     unchanged), so Algorithm 3's patience signal stays global without
//     any stop-the-world merge.
//   - Immediate verdict publication: worker solvers write Sat/Unsat
//     verdicts straight into the shared cache (solver.ShardedCache or
//     the store's persistent cache) instead of parking them in a
//     roundCache until the barrier; every Put carries a sequence number
//     (ShardedCache.Seq) so publication order remains reconstructible.
//   - Work stealing: a worker whose shards drain posts a request on a
//     shared channel; any worker passing a poll point detaches half of
//     its largest frontier (symex.Executor.DetachState) and hands the
//     states over, and the thief rebuilds them in its own context via
//     expr.Importer. A claim CAS arbitrates between a victim serving the
//     request and the thief timing out, so states are never detached
//     into a request nobody is waiting on.
//
// The trade is determinism: results depend on goroutine interleaving,
// so coverage, bug sets, and stats are NOT a pure function of opts.Seed
// (use -deterministic when bit-reproducibility matters more than
// throughput). Checkpoints happen at rendezvous points — when global
// virtual time crosses the cadence, workers park at their next turn
// boundary and the last arrival writes the checkpoint (modeWorkSteal)
// with every executor quiescent; resume re-deals the states, with no
// bit-identity promise. Supervision attaches per worker through the
// same Supervisor.Turn handle interface the islands use: crashes requeue
// the worker's states, watchdog-tripped turns get a bounded grace wait
// and then the whole worker is abandoned (its states quarantined).

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbse/internal/expr"
	"pbse/internal/faultinject"
	"pbse/internal/ir"
	"pbse/internal/phase"
	"pbse/internal/solver"
	"pbse/internal/supervise"
	"pbse/internal/symex"
)

// wsFlushInterval is how many steps pass between a worker's mid-turn
// bookkeeping points: global-clock flush, coverage publication, steal
// service, and stop/rendezvous checks.
const wsFlushInterval = 64

// wsStealTimeout bounds how long a thief waits for a victim before
// reclaiming its request.
const wsStealTimeout = 2 * time.Millisecond

// coverBoard is the shared coverage state: one bit per block, set with
// CAS so workers publish without locks. epoch increments on every
// publication that added at least one block — workers compare it against
// their last absorbed epoch to skip no-op absorbs. The series is the
// run-wide coverage curve, appended under mu.
type coverBoard struct {
	words   []atomic.Uint64
	epoch   atomic.Int64
	covered atomic.Int64

	mu     sync.Mutex
	series []CoveragePoint
}

func newCoverBoard(numBlocks int, base []int) *coverBoard {
	b := &coverBoard{words: make([]atomic.Uint64, (numBlocks+63)/64)}
	for _, id := range base {
		w := &b.words[id/64]
		w.Store(w.Load() | 1<<(id%64))
	}
	b.covered.Store(int64(len(base)))
	return b
}

// publish CASes ids into the board, returning how many were new. A
// publication that grew the board bumps the epoch and records a series
// point at virtual time now.
func (b *coverBoard) publish(ids []int, now int64) int {
	fresh := 0
	for _, id := range ids {
		w := &b.words[id/64]
		bit := uint64(1) << (id % 64)
		for {
			old := w.Load()
			if old&bit != 0 {
				break
			}
			if w.CompareAndSwap(old, old|bit) {
				fresh++
				break
			}
		}
	}
	if fresh > 0 {
		total := b.covered.Add(int64(fresh))
		b.epoch.Add(1)
		b.mu.Lock()
		b.series = append(b.series, CoveragePoint{Time: now, Covered: int(total)})
		b.mu.Unlock()
	}
	return fresh
}

// snapshot lists every covered block id.
func (b *coverBoard) snapshot() []int {
	out := make([]int, 0, b.covered.Load())
	for wi := range b.words {
		w := b.words[wi].Load()
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, wi*64+bit)
			w &^= 1 << bit
		}
	}
	return out
}

// stealReq is one thief's request for work. claimed arbitrates the race
// between a victim starting to serve and the thief timing out: whoever
// wins the CAS owns the request, so a victim never detaches states into
// a reply nobody will read, and a thief that loses the CAS knows a
// grant is in flight and waits for it unconditionally.
type stealReq struct {
	claimed atomic.Bool
	reply   chan stealGrant
}

// stealGrant carries detached (never terminated) states from victim to
// thief. The channel transfer is the happens-before edge that makes the
// thief's reads of the victim-context expressions race-free; from
// identifies the source context for the thief's importer cache.
type stealGrant struct {
	states []*symex.State
	pool   int // pools index the states belong to
	from   *wsWorker
}

// wsFrontier is one worker's shard of one phase's frontier.
type wsFrontier struct {
	states []*symex.State
	turn   int64 // per-phase turn counter; escalates the slice
}

// wsWorker is one scheduler worker: a private executor (own context and
// solver, hot paths lock-free) holding shards of every phase.
type wsWorker struct {
	id  int
	sh  *wsShared
	ex  *symex.Executor
	rng *rand.Rand
	inj *faultinject.Injector

	fronts []wsFrontier
	next   int // round-robin cursor over fronts

	// live is this worker's frontier population (terminated-in-place
	// states included until popped). Owner-written, read by the drained
	// scan; abandoned workers are excluded from that scan, which is what
	// keeps a runaway turn from wedging termination.
	live atomic.Int64

	published int   // local covered count already pushed to the board
	seenEpoch int64 // board epoch last absorbed
	importers map[*wsWorker]*expr.Importer

	stats  WorkerStat
	pstats []PhaseStat // per-pool scratch; merged into pools at exit

	// abandoned marks a worker whose hung turn goroutine overstayed the
	// grace wait: its executor may still be racing, so everything it
	// owns is excluded from drained scans, checkpoints, and the final
	// merge. Atomic because the drained scan reads it cross-worker.
	abandoned atomic.Bool
}

// wsShared is the state all workers share.
type wsShared struct {
	opts  Options
	pools []*phasePool
	board *coverBoard
	sv    *supervision

	clock   atomic.Int64 // global virtual time (concolic + all workers, all processes)
	stop    atomic.Bool
	intr    atomic.Bool // stopped by MaxRounds
	steal   chan *stealReq
	transit atomic.Int64 // states detached but not yet imported

	workers []*wsWorker

	// Rendezvous checkpointing: when the clock crosses nextCk, ckWant
	// parks every worker at its next turn boundary; the last to arrive
	// (or the last exiting worker others were waiting on) runs checkpoint
	// with every active executor quiescent.
	ckOn       bool
	cadence    int64
	nextCk     atomic.Int64
	ckWant     atomic.Bool
	rounds     int64  // rendezvous checkpoints completed (this process)
	checkpoint func() // runs under the barrier; nil-safe campaign inside
	bar        struct {
		mu      sync.Mutex
		cond    *sync.Cond
		arrived int
		active  int
		gen     uint64
	}
}

func (sh *wsShared) vtime() int64 { return sh.clock.Load() }

func (sh *wsShared) activeWorkers() int64 {
	sh.bar.mu.Lock()
	n := int64(sh.bar.active)
	sh.bar.mu.Unlock()
	if n < 1 {
		n = 1
	}
	return n
}

// drained reports that no live work remains anywhere a non-abandoned
// worker (or an in-flight steal) could still reach.
func (sh *wsShared) drained() bool {
	if sh.transit.Load() != 0 {
		return false
	}
	for _, w := range sh.workers {
		if w.abandoned.Load() {
			continue
		}
		if w.live.Load() > 0 {
			return false
		}
	}
	return true
}

// rendezvous parks the worker while a checkpoint is wanted. The last
// arrival writes the checkpoint itself — at that instant every other
// active worker is parked inside this function, so every executor it
// reads is quiescent.
func (sh *wsShared) rendezvous() {
	if !sh.ckWant.Load() {
		return
	}
	b := &sh.bar
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.active {
		sh.runCheckpoint()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for b.gen == gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// workerExit retires a worker from the barrier. If everyone else is
// already parked waiting on this worker, it runs the pending checkpoint
// on their behalf before leaving.
func (sh *wsShared) workerExit() {
	b := &sh.bar
	b.mu.Lock()
	b.active--
	if sh.ckWant.Load() && b.active > 0 && b.arrived == b.active {
		sh.runCheckpoint()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// runCheckpoint executes one rendezvous: count the round, fire the
// kill-round fault hook (before the checkpoint, so the killed round's
// work is genuinely lost), persist, honour MaxRounds, and schedule the
// next rendezvous. Called with bar.mu held and all other active workers
// parked.
func (sh *wsShared) runCheckpoint() {
	sh.rounds++
	sh.sv.kill(sh.rounds)
	if sh.checkpoint != nil {
		sh.checkpoint()
	}
	if sh.opts.MaxRounds > 0 && sh.rounds >= sh.opts.MaxRounds {
		sh.intr.Store(true)
		sh.stop.Store(true)
	}
	sh.nextCk.Store(sh.vtime() + sh.cadence)
	sh.ckWant.Store(false)
}

// wsResume carries a modeWorkSteal checkpoint's position into
// runWorkSteal; states were already decoded into the main executor's
// pools and are re-dealt like a fresh start.
type wsResume struct {
	deadClock int64 // virtual time spent by workers before this process
	epoch     int64
	rounds    int64
}

// runWorkSteal drives the fast-mode scheduler. ex is the concolic-run
// executor: its coverage seeds the board and every worker, and the
// merged results fold back into it so Run's common tail behaves exactly
// as for the other schedulers.
func runWorkSteal(prog *ir.Program, ex *symex.Executor, pools []*phasePool,
	seedBytes []byte, workers int, opts Options, exOpts symex.Options, res *Result,
	camp *campaign, rp *wsResume, sv *supervision) {

	var shared solver.VerdictCache
	if camp.enabled() {
		shared = camp.cache
	} else {
		shared = solver.NewShardedCache()
	}

	baseCover := ex.CoveredBlocks()
	sh := &wsShared{
		opts:  opts,
		pools: pools,
		board: newCoverBoard(len(prog.AllBlocks), baseCover),
		sv:    sv,
		steal: make(chan *stealReq, workers),
	}
	sh.bar.cond = sync.NewCond(&sh.bar.mu)
	sh.bar.active = workers
	sh.clock.Store(ex.Clock())
	if rp != nil {
		sh.clock.Add(rp.deadClock)
		sh.board.epoch.Store(rp.epoch)
		sh.rounds = rp.rounds
	}
	sh.ckOn = camp.enabled() || opts.MaxRounds > 0
	sh.cadence = opts.TimePeriod * int64(len(pools)+1)
	if sh.cadence < 1 {
		sh.cadence = 1
	}
	sh.nextCk.Store(sh.vtime() + sh.cadence)

	// Deal every phase's frontier round-robin across the workers.
	shards := make([][][]*symex.State, workers) // [worker][pool]states
	for w := 0; w < workers; w++ {
		shards[w] = make([][]*symex.State, len(pools))
	}
	for pi, p := range pools {
		for w, idxs := range phase.Shard(len(p.states), workers) {
			for _, i := range idxs {
				shards[w][pi] = append(shards[w][pi], p.states[i])
			}
		}
	}

	sh.workers = make([]*wsWorker, workers)
	var buildWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &wsWorker{id: i, sh: sh, importers: make(map[*wsWorker]*expr.Importer)}
		w.stats.Worker = i
		sh.workers[i] = w
		buildWG.Add(1)
		go func(w *wsWorker) {
			defer buildWG.Done()
			buildWSWorker(prog, ex, w, shared, seedBytes, baseCover, opts, exOpts, shards[w.id])
		}(w)
	}
	buildWG.Wait()

	if camp.enabled() {
		sh.checkpoint = func() {
			camp.bumpRound()
			camp.barrierWorkSteal(sh)
		}
	}

	var runWG sync.WaitGroup
	for _, w := range sh.workers {
		runWG.Add(1)
		go func(w *wsWorker) {
			defer runWG.Done()
			w.run()
		}(w)
	}
	runWG.Wait()

	// Final merge, in worker order. Abandoned workers are skipped
	// wholesale — their executors may still be racing a runaway turn —
	// and their last turn's work is recorded as lost.
	ex.AbsorbCoverage(sh.board.snapshot())
	ws := make([]WorkerStat, 0, workers)
	for _, w := range sh.workers {
		if w.abandoned.Load() {
			continue
		}
		ws = append(ws, w.stats)
		for _, r := range w.ex.Bugs.Reports() {
			ex.Bugs.Add(r)
		}
		res.Gov.Merge(w.ex.Gov())
		res.SolverStats.Accum(w.ex.Solver.Stats())
		for pi := range pools {
			s := w.pstats[pi]
			pools[pi].stat.Steps += s.Steps
			pools[pi].stat.Turns += s.Turns
			pools[pi].stat.NewBlocks += s.NewBlocks
			pools[pi].stat.Bugs += s.Bugs
			pools[pi].stat.Quarantines += s.Quarantines
		}
	}
	sh.board.mu.Lock()
	pts := append([]CoveragePoint(nil), sh.board.series...)
	sh.board.mu.Unlock()
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time })
	res.Series = append(res.Series, pts...)
	res.Interrupted = sh.intr.Load()
	res.SharedCache = sharedCacheStats(shared)
	res.WorkerStats = camp.mergeWorkerStats(ws)

	// Exit checkpoint: a finished (or drained) campaign reconstructs this
	// position on resume and immediately falls through again.
	if camp.enabled() && !res.Interrupted {
		camp.barrierWorkSteal(sh)
	}
}

// buildWSWorker constructs one worker's private executor and imports its
// deal of every phase's states. Unlike the islands' roundCache, the
// solver's shared tier is wired directly: verdicts publish the moment
// they are decided.
func buildWSWorker(prog *ir.Program, ex *symex.Executor, w *wsWorker,
	shared solver.VerdictCache, seedBytes []byte, baseCover []int,
	opts Options, exOpts symex.Options, deal [][]*symex.State) {

	po := exOpts
	po.FaultInjector = exOpts.FaultInjector.Child(int64(w.id)) // nil-safe
	po.SolverOpts.Injector = nil                               // rewired from the child injector
	po.SolverOpts.Shared = shared
	w.inj = po.FaultInjector

	pex := symex.NewExecutor(prog, po)
	sb := make([]byte, len(seedBytes))
	copy(sb, seedBytes)
	pex.Solver.AddCandidate(expr.Assignment{pex.InputArr: sb})
	pex.AbsorbCoverage(baseCover)

	im := expr.NewImporter(pex.Ctx, map[*expr.Array]*expr.Array{ex.InputArr: pex.InputArr})
	w.fronts = make([]wsFrontier, len(deal))
	n := 0
	for pi, states := range deal {
		for _, s := range states {
			w.fronts[pi].states = append(w.fronts[pi].states, pex.ImportState(s, im))
			n++
		}
	}
	pex.SetStateIDBase(ex.NextStateID() + (w.id+1)*stateIDStride)

	w.ex = pex
	w.pstats = make([]PhaseStat, len(deal))
	w.published = pex.NumCovered()
	w.rng = rand.New(rand.NewSource(opts.Seed + 101 + int64(w.id)*0x9e3779b9))
	w.live.Store(int64(n))
}

// run is the worker driver loop: absorb foreign coverage, run one turn
// of the next non-empty phase shard, publish; steal when drained.
func (w *wsWorker) run() {
	sh := w.sh
	for !sh.stop.Load() {
		sh.rendezvous()
		if sh.stop.Load() {
			break
		}
		w.absorbForeign()
		pi := w.pickPhase()
		if pi < 0 {
			if sh.drained() {
				break
			}
			w.trySteal()
			continue
		}
		if sh.sv.supervised() {
			w.runTurnSupervised(pi)
			if w.abandoned.Load() {
				return // runTurnSupervised already retired us from the barrier
			}
		} else {
			w.runTurn(pi, 1)
		}
		w.publish(pi)
		if sh.ckOn && sh.vtime() >= sh.nextCk.Load() {
			sh.ckWant.Store(true)
		}
	}
	sh.workerExit()
}

// pickPhase advances the round-robin cursor to the next frontier with
// states; -1 when every shard is empty.
func (w *wsWorker) pickPhase() int {
	for i := 0; i < len(w.fronts); i++ {
		pi := (w.next + i) % len(w.fronts)
		if len(w.fronts[pi].states) > 0 {
			w.next = (pi + 1) % len(w.fronts)
			return pi
		}
	}
	return -1
}

// absorbForeign folds the board's bits this worker hasn't seen into its
// private bitmap, so entering a block another worker covered reads as
// NewCover=false — the global patience signal. Skipped in O(1) when the
// epoch hasn't moved.
func (w *wsWorker) absorbForeign() {
	e := w.sh.board.epoch.Load()
	if e == w.seenEpoch {
		return
	}
	w.seenEpoch = e
	w.ex.AbsorbCoverage(w.sh.board.snapshot())
	w.published = w.ex.NumCovered() // absorbed blocks are already on the board
}

// publish pushes locally new coverage to the board, crediting pool pi.
func (w *wsWorker) publish(pi int) {
	if w.ex.NumCovered() == w.published {
		return
	}
	fresh := w.sh.board.publish(w.ex.CoveredBlocks(), w.sh.vtime())
	w.published = w.ex.NumCovered()
	w.pstats[pi].NewBlocks += fresh
}

// runTurn is one Algorithm 3 turn over the worker's shard of phase pi:
// uniform-random selection, escalating slice, break on a slice without
// new cover. Differences from the deterministic islands: the slice and
// hard cap cut against the *global* atomic clock (flushed every
// wsFlushInterval steps), coverage publishes mid-turn, steal requests
// are served at flush points, and a state that just covered new code is
// stepped again immediately (frontier affinity — cheap coverage-guided
// bias that determinism forbids the islands).
func (w *wsWorker) runTurn(pi int, scale float64) int64 {
	sh := w.sh
	f := &w.fronts[pi]
	f.turn++
	pool := sh.pools[pi]
	slice := int64(float64(f.turn*sh.opts.TimePeriod) * pool.sliceBoost() * scale)
	hardCap := (sh.opts.Budget-sh.vtime())/sh.activeWorkers() + 1
	stat := &w.pstats[pi]
	turnStart := w.ex.Clock()
	lastFlush := turnStart
	var steps int64
	var cur *symex.State // stick with a state while it covers new code
	for len(f.states) > 0 && !w.ex.Interrupted() {
		st := cur
		cur = nil
		if st == nil || st.Terminated() {
			idx := w.rng.Intn(len(f.states))
			st = f.states[idx]
			if st.Terminated() {
				f.states[idx] = f.states[len(f.states)-1]
				f.states = f.states[:len(f.states)-1]
				w.live.Add(-1)
				continue
			}
		}
		r := w.ex.StepBlock(st)
		steps++
		stat.Steps++
		if len(r.Added) > 0 {
			f.states = append(f.states, r.Added...)
			w.live.Add(int64(len(r.Added)))
		}
		if r.Bug != nil {
			r.Bug.Phase = pool.info.ID
			stat.Bugs++
		}
		if r.Terminated && r.Reason == symex.TermQuarantined {
			stat.Quarantines++
		}
		// terminated states are dropped lazily, at selection time
		if r.NewCover && !r.Terminated {
			cur = st
		}
		now := w.ex.Clock()
		if now-turnStart >= hardCap {
			break
		}
		if now-turnStart > slice && !r.NewCover {
			break // Algorithm 3 line 15
		}
		if steps%wsFlushInterval == 0 {
			sh.clock.Add(now - lastFlush)
			lastFlush = now
			if sh.vtime() >= sh.opts.Budget {
				sh.stop.Store(true)
				break
			}
			w.publish(pi)
			w.serveSteals()
			if sh.stop.Load() || sh.ckWant.Load() {
				break
			}
		}
	}
	sh.clock.Add(w.ex.Clock() - lastFlush)
	if sh.vtime() >= sh.opts.Budget {
		sh.stop.Store(true)
	}
	stat.Turns++
	w.stats.Turns++
	w.stats.Steps += steps
	return steps
}

// serveSteals answers at most one pending steal request. A worker that
// cannot help (no frontier with a state to spare) puts the request back
// for someone else; the thief's timeout covers the case where nobody
// can.
func (w *wsWorker) serveSteals() {
	select {
	case req := <-w.sh.steal:
		if !w.serve(req) {
			select {
			case w.sh.steal <- req:
			default:
			}
		}
	default:
	}
}

// serve detaches half of this worker's largest frontier into a grant.
func (w *wsWorker) serve(req *stealReq) bool {
	best, n := -1, 1
	for i := range w.fronts {
		if l := len(w.fronts[i].states); l > n {
			best, n = i, l
		}
	}
	if best < 0 {
		return false
	}
	if !req.claimed.CompareAndSwap(false, true) {
		return true // thief gave up; request is dead
	}
	f := &w.fronts[best]
	cut := len(f.states) - len(f.states)/2
	g := stealGrant{pool: best, from: w}
	removed := int64(0)
	for _, st := range f.states[cut:] {
		removed++
		if st.Terminated() {
			continue // terminated-in-place: drop, never transfer
		}
		w.ex.DetachState(st)
		g.states = append(g.states, st)
	}
	f.states = f.states[:cut]
	w.live.Add(-removed)
	w.sh.transit.Add(int64(len(g.states)))
	req.reply <- g
	return true
}

// trySteal posts a request and imports the grant. Returns false when no
// victim served in time (the request is then reclaimed via the claim
// CAS, or — if a victim won the claim first — its grant is awaited
// unconditionally, since the victim already detached the states).
func (w *wsWorker) trySteal() bool {
	sh := w.sh
	req := &stealReq{reply: make(chan stealGrant, 1)}
	select {
	case sh.steal <- req:
	default:
		time.Sleep(wsStealTimeout)
		return false
	}
	var g stealGrant
	timer := time.NewTimer(wsStealTimeout)
	select {
	case g = <-req.reply:
		timer.Stop()
	case <-timer.C:
		if req.claimed.CompareAndSwap(false, true) {
			return false
		}
		g = <-req.reply
	}
	if len(g.states) == 0 {
		return false
	}
	im := w.importers[g.from]
	if im == nil {
		im = expr.NewImporter(w.ex.Ctx, map[*expr.Array]*expr.Array{g.from.ex.InputArr: w.ex.InputArr})
		w.importers[g.from] = im
	}
	f := &w.fronts[g.pool]
	for _, st := range g.states {
		f.states = append(f.states, w.ex.ImportState(st, im))
	}
	w.live.Add(int64(len(g.states)))
	sh.transit.Add(-int64(len(g.states)))
	return true
}

// runTurnSupervised wraps one turn in the supervisor's containment: the
// body runs on its own goroutine under Supervisor.Turn with the
// executor's interrupt as the watchdog's abort, and the worker climbs
// the same retry/backoff ladder the phase islands use (keyed by worker
// id). A crash leaves the shard's states queued for the next turn. A
// watchdog trip gets a bounded grace wait for the body to honour the
// interrupt; a body that overstays takes the whole worker with it —
// abandoned, its states quarantined, excluded from every later read.
func (w *wsWorker) runTurnSupervised(pi int) {
	sv := w.sh.sv
	sup := sv.sup
	lad := sup.Island(w.id)
	if lad.TakeSkip() {
		sup.Add(supervise.SupStats{BackoffSkips: 1})
		return
	}
	if lad.Failures() > 0 {
		sup.Add(supervise.SupStats{Restarts: 1})
	}
	scale := lad.SliceScale()
	preLive := w.live.Load()
	w.ex.ClearInterrupt()
	w.ex.SetConcretizeOnly(lad.Level() >= supervise.LevelConcretize)
	outcome, _, h := sup.Turn(func() {
		if w.inj.IslandCrash() {
			panic(fmt.Sprintf("faultinject: worker %d crash", w.id))
		}
		if d, ok := w.inj.IslandHang(); ok {
			time.Sleep(d)
			if w.ex.Interrupted() {
				return // the watchdog gave up on us while we stalled
			}
		}
		w.runTurn(pi, scale)
	}, w.ex.Interrupt)
	switch outcome {
	case supervise.Crashed:
		w.ex.SetConcretizeOnly(false)
		lad.Fault()
		sup.Add(supervise.SupStats{RequeuedStates: int64(len(w.fronts[pi].states))})
	case supervise.Interrupted:
		w.ex.SetConcretizeOnly(false)
		lad.Fault()
	case supervise.Hung:
		lad.Fault()
		wait := sup.Opts().IslandDeadline + sup.Opts().HangGrace +
			w.inj.Opts().IslandHangDelay + time.Second
		if h.Wait(wait) {
			w.ex.SetConcretizeOnly(false)
			if _, crashed := h.Crash(); crashed {
				sup.Add(supervise.SupStats{Crashes: 1})
			}
			return
		}
		// The body is still running: nothing of this worker may be
		// touched again. Its states leave the live-work account so the
		// other workers can still drain and exit.
		sup.Add(supervise.SupStats{QuarantinedIslands: 1, QuarantinedStates: preLive})
		w.abandoned.Store(true)
		w.sh.workerExit()
	default:
		w.ex.SetConcretizeOnly(false)
		lad.Success()
	}
}

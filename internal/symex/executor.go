package symex

import (
	"fmt"
	"sync/atomic"

	"pbse/internal/analysis"
	"pbse/internal/bugs"
	"pbse/internal/expr"
	"pbse/internal/faultinject"
	"pbse/internal/ir"
	"pbse/internal/solver"
)

// Options configure an Executor.
type Options struct {
	// InputSize is the symbolic input size in bytes.
	InputSize int
	// SolverOpts tune the constraint solver.
	SolverOpts solver.Options
	// ITEThreshold is the maximum offset range materialised as an ITE
	// chain for symbolic loads; wider ranges are concretised. Default 16.
	ITEThreshold int
	// MaxStates caps live states; further forks are suppressed (the
	// false/else side is dropped). 0 means unlimited.
	MaxStates int
	// MaxStateBytes is a soft cap on the estimated total heap footprint
	// of live states. When a periodic sweep finds the total above the
	// cap, the executor evicts (terminates) the highest-cost states,
	// preferring non-seedStates so Algorithm 3's per-phase seeds survive
	// pressure. 0 means unlimited.
	MaxStateBytes int64
	// FaultInjector, when set, enables deterministic fault injection for
	// robustness testing. It is also wired into SolverOpts.Injector
	// unless one is already set there.
	FaultInjector *faultinject.Injector
	// Static, when set, enables static query pruning from the
	// abstract-interpretation pass: branch queries consult the proven
	// edge-feasibility map and solver.PreCheck seeded with the current
	// block's interval invariants before any SAT dispatch. The facts must
	// come from the same finalised program this executor runs.
	Static *analysis.AbsFacts
	// BatchSiblings is ignored. Every executor dispatches the sibling
	// feasibility queries of a terminator as one batch (DESIGN.md §12);
	// the field remains so existing callers keep compiling.
	BatchSiblings bool
}

// TermReason explains why a state terminated.
type TermReason int

// Termination reasons.
const (
	TermNone        TermReason = iota
	TermExit                   // clean exit
	TermInfeasible             // path constraints became unsatisfiable
	TermFault                  // unavoidable fault (e.g. concrete div by zero)
	TermError                  // internal error (wild pointer, unknown op)
	TermQuarantined            // a panic while stepping was contained to this state
	TermEvicted                // terminated by the memory-pressure sweep
)

// StepResult reports what happened during one StepBlock call.
type StepResult struct {
	Added      []*State // states forked off during the step
	NewCover   bool     // entered a block not covered before
	Terminated bool
	Reason     TermReason
	Bug        *bugs.Report // bug found during the step (may be non-fatal)
}

// Executor drives symbolic execution of one program. It owns the
// expression context, the solver, global coverage, and bug collection;
// search order is decided by the caller (a Searcher or the pbSE
// scheduler).
type Executor struct {
	Prog     *ir.Program
	Ctx      *expr.Context
	Solver   *solver.Solver
	InputArr *expr.Array
	Bugs     *bugs.Collector

	// BlockHook, when set, is invoked on every basic-block entry with the
	// entering state and the virtual time (used for BBV gathering and
	// trace recording).
	BlockHook func(st *State, b *ir.Block, clock int64)

	opts        Options
	concolic    *concolicMode
	clock       int64
	covered     []bool
	numCovered  int
	coverEpoch  int // bumped when coverage grows (heuristic caches key on it)
	nextStateID int
	liveStates  int

	// Resource governance (govern.go).
	inj                *faultinject.Injector
	gov                GovStats
	live               map[*State]struct{}
	stepsSincePressure int
	quarantined        []QuarantineRecord

	// factBuf is reused scratch for materialising static invariants as
	// solver.RangeFacts (static.go).
	factBuf []solver.RangeFact

	// witnessTried records bug sites (BlockID<<32|instr index) where the
	// batched bounds check already attempted the expensive full-path
	// witness query. A successful attempt reports the bug (and Seen
	// suppresses later ones); a failed one means the witness solve gave
	// up — without this memo such a site would re-run the doomed query
	// on every later execution of the same instruction (memory.go).
	witnessTried map[int64]bool

	// Supervision hooks (see internal/supervise and DESIGN.md §11).
	// interrupted is the cooperative abort flag a watchdog raises from
	// another goroutine; schedulers poll it between steps. concretizeOnly
	// is only toggled between turns by whoever owns the executor, so it
	// needs no synchronization.
	interrupted    atomic.Bool
	concretizeOnly bool
}

// NewExecutor returns an executor for prog with a fresh context/solver.
func NewExecutor(prog *ir.Program, opts Options) *Executor {
	if opts.ITEThreshold == 0 {
		opts.ITEThreshold = 16
	}
	if opts.FaultInjector != nil && opts.SolverOpts.Injector == nil {
		opts.SolverOpts.Injector = opts.FaultInjector
	}
	ctx := expr.NewContext()
	return &Executor{
		Prog:     prog,
		Ctx:      ctx,
		Solver:   solver.New(opts.SolverOpts),
		InputArr: expr.NewArray("input", opts.InputSize),
		Bugs:     bugs.NewCollector(),
		opts:     opts,
		covered:  make([]bool, len(prog.AllBlocks)),
		inj:      opts.FaultInjector,
	}
}

// Clock returns the global virtual time (instructions executed).
func (e *Executor) Clock() int64 { return e.clock }

// Interrupt raises the cooperative abort flag: schedulers polling
// Interrupted wind the current turn down at the next step boundary.
// Safe to call from any goroutine (the supervisor's watchdog does).
func (e *Executor) Interrupt() { e.interrupted.Store(true) }

// ClearInterrupt lowers the abort flag before a new turn.
func (e *Executor) ClearInterrupt() { e.interrupted.Store(false) }

// Interrupted reports whether an abort has been requested.
func (e *Executor) Interrupted() bool { return e.interrupted.Load() }

// SetConcretizeOnly switches the executor into (or out of) degraded
// concretize-only stepping: symbolic branches and switches stop forking
// and instead pin their direction to a concrete model of the path —
// the cheapest mode that still makes progress, used by the supervisor's
// retry ladder for islands with repeated faults. Must only be toggled
// between turns by the executor's owner.
func (e *Executor) SetConcretizeOnly(on bool) { e.concretizeOnly = on }

// NumCovered returns the number of distinct basic blocks covered.
func (e *Executor) NumCovered() int { return e.numCovered }

// CoverEpoch increases whenever coverage grows.
func (e *Executor) CoverEpoch() int { return e.coverEpoch }

// Covered reports whether block id has been covered.
func (e *Executor) Covered(id int) bool { return e.covered[id] }

// CoveredBlocks returns a copy of the covered-block ID set.
func (e *Executor) CoveredBlocks() []int {
	out := make([]int, 0, e.numCovered)
	for id, c := range e.covered {
		if c {
			out = append(out, id)
		}
	}
	return out
}

// LiveStates returns the number of non-terminated states created by this
// executor and not yet terminated.
func (e *Executor) LiveStates() int { return e.liveStates }

// NewEntryState creates the initial state at main's entry with a fully
// symbolic input of Options.InputSize bytes.
func (e *Executor) NewEntryState() *State {
	main := e.Prog.Entry()
	st := &State{
		ID:              e.nextStateID,
		objs:            make(map[uint32]*mobject, 8),
		nextID:          InputObjID + 1,
		Blk:             main.Entry(),
		Idx:             0,
		SeedForkBlockID: -1,
		SeedForkIdx:     -1,
	}
	e.nextStateID++
	e.register(st)
	st.frames = []*frame{{fn: main, regs: make([]*expr.Expr, main.NumRegs), retDst: ir.NoReg}}
	input := newObject(e.opts.InputSize)
	for i := 0; i < e.opts.InputSize; i++ {
		input.setByte(i, e.Ctx.ByteAt(e.InputArr, i))
	}
	st.objs[InputObjID] = input
	return st
}

// markCover records block entry; returns true when it is new coverage.
func (e *Executor) markCover(id int) bool {
	if e.covered[id] {
		return false
	}
	e.covered[id] = true
	e.numCovered++
	e.coverEpoch++
	return true
}

// terminate marks st dead.
func (e *Executor) terminate(st *State) {
	if !st.terminated {
		st.terminated = true
		e.liveStates--
		delete(e.live, st)
	}
}

// Terminate allows schedulers to kill a state explicitly.
func (e *Executor) Terminate(st *State) { e.terminate(st) }

// StepBlock runs st until it leaves its current basic block (executes its
// terminator), forks, or terminates. On entry st must be live.
//
// StepBlock is the quarantine boundary: a panic raised while stepping st
// — whether from an instruction-handling bug or injected by the fault
// harness — is recovered here and converted into termination of st
// alone. Other live states, coverage, and solver state are unaffected.
func (e *Executor) StepBlock(st *State) (res StepResult) {
	defer func() {
		if p := recover(); p != nil {
			e.quarantine(st, p, &res)
		}
	}()
	if e.inj != nil && e.concolic == nil && !st.terminated && st.Blk != nil &&
		e.inj.StepPanic(st.Blk.Fn.Name) {
		panic(fmt.Sprintf("faultinject: injected panic stepping %s", st.Blk.Fn.Name))
	}
	res = e.stepBlock(st)
	e.maybeEvict(st)
	return res
}

// stepBlock is the unguarded step dispatch; see StepBlock.
func (e *Executor) stepBlock(st *State) StepResult {
	if st.terminated {
		return StepResult{Terminated: true, Reason: TermNone}
	}
	var res StepResult
	if st.needsValidation {
		// seedStates recorded during concolic execution skip the fork-time
		// feasibility check; validate lazily on first selection. Only a
		// definitive Unsat kills the state: on Unknown (even after the
		// escalated retry) the seed is kept — its path was concretely
		// executed, so it is almost certainly feasible, and killing it
		// would silently disable a phase.
		st.needsValidation = false
		if e.validatePC(st) == solver.Unsat {
			e.terminate(st)
			res.Terminated = true
			res.Reason = TermInfeasible
			return res
		}
	}
	if st.StepsExecuted == 0 {
		// first step of a fresh state: process the initial block entry
		e.enterBlock(st, &res)
	}
	for {
		in := &st.Blk.Instrs[st.Idx]
		e.clock++
		st.StepsExecuted++

		done, transferred := e.execInstr(st, in, &res)
		if transferred && !st.terminated && in.Op != ir.OpRet {
			// Control moved to a new block (or into a callee). Returning
			// into the middle of the caller's block is not a block entry
			// (matching the concrete interpreter's accounting).
			e.enterBlock(st, &res)
		}
		if done {
			return res
		}
		if transferred {
			if in.Op.IsTerminator() {
				return res // block boundary reached
			}
			// calls/returns continue within the step until a real block
			// boundary, matching "one source block per step"
			continue
		}
		st.Idx++
	}
}

// enterBlock processes a basic-block entry: the BBV/trace hook and
// coverage accounting.
func (e *Executor) enterBlock(st *State, res *StepResult) {
	if e.BlockHook != nil {
		e.BlockHook(st, st.Blk, e.clock)
	}
	if e.markCover(st.Blk.ID) {
		res.NewCover = true
		st.LastNewCover = e.clock
	}
}

// execInstr executes one instruction. It returns (done, transferred):
// done ends the StepBlock call (termination or fork); transferred means
// control moved (st.Blk/st.Idx already updated).
func (e *Executor) execInstr(st *State, in *ir.Instr, res *StepResult) (bool, bool) {
	c := e.Ctx
	w := uint(in.Width)
	switch in.Op {
	case ir.OpConst:
		st.setReg(in.Dst, c.Const(in.Imm, w))
	case ir.OpBin:
		a := st.reg(c, in.A, w)
		b := st.reg(c, in.B, w)
		if isDivOp(in.Bin) {
			if stop := e.checkDivByZero(st, in, b, res); stop {
				return true, false
			}
			// after checkDivByZero the divisor is constrained non-zero
			// (or was concrete non-zero)
		}
		st.setReg(in.Dst, applyBin(c, in.Bin, a, b))
	case ir.OpCmp:
		a := st.reg(c, in.A, w)
		b := st.reg(c, in.B, w)
		st.setReg(in.Dst, applyPred(c, in.Pred, a, b))
	case ir.OpNot:
		st.setReg(in.Dst, c.NotE(st.reg(c, in.A, w)))
	case ir.OpMov:
		st.setReg(in.Dst, st.reg(c, in.A, w))
	case ir.OpZext:
		st.setReg(in.Dst, coerceZ(c, st.rawReg(c, in.A), w))
	case ir.OpSext:
		a := st.rawReg(c, in.A)
		if a.Width() >= w {
			st.setReg(in.Dst, c.TruncE(a, w))
		} else {
			st.setReg(in.Dst, c.SExtE(a, w))
		}
	case ir.OpTrunc:
		st.setReg(in.Dst, coerceZ(c, st.rawReg(c, in.A), w))
	case ir.OpSelect:
		cond := st.reg(c, in.A, 1)
		b := st.reg(c, in.B, w)
		d := st.reg(c, in.C, w)
		st.setReg(in.Dst, c.ITEe(cond, b, d))
	case ir.OpAlloca:
		id := st.nextID
		st.nextID++
		st.objs[id] = newObject(int(in.Imm))
		st.setReg(in.Dst, c.Const(ir.MakeObjRef(id, 0), 64))
	case ir.OpInput:
		st.setReg(in.Dst, c.Const(ir.MakeObjRef(InputObjID, 0), 64))
	case ir.OpInputLen:
		st.setReg(in.Dst, c.Const(uint64(e.opts.InputSize), w))
	case ir.OpLoad:
		v, stop := e.execLoad(st, in, res)
		if stop {
			return true, false
		}
		st.setReg(in.Dst, v)
	case ir.OpStore:
		if stop := e.execStore(st, in, res); stop {
			return true, false
		}
	case ir.OpCall:
		callee := e.Prog.Func(in.Callee)
		nf := &frame{
			fn:       callee,
			regs:     make([]*expr.Expr, callee.NumRegs),
			retDst:   in.Dst,
			retBlock: st.Blk,
			retIndex: st.Idx + 1,
		}
		for i, a := range in.Args {
			nf.regs[i] = st.rawReg(c, a)
		}
		st.frames = append(st.frames, nf)
		st.Blk = callee.Entry()
		st.Idx = 0
		return false, true
	case ir.OpRet:
		var rv *expr.Expr
		if in.A != ir.NoReg {
			rv = st.rawReg(c, in.A)
		}
		fr := st.frames[len(st.frames)-1]
		st.frames = st.frames[:len(st.frames)-1]
		if len(st.frames) == 0 {
			e.terminate(st)
			res.Terminated = true
			res.Reason = TermExit
			return true, false
		}
		if fr.retDst != ir.NoReg && rv != nil {
			st.setReg(fr.retDst, rv)
		}
		st.Blk = fr.retBlock
		st.Idx = fr.retIndex
		return false, true
	case ir.OpBr:
		return e.execBranch(st, in, res)
	case ir.OpJmp:
		st.Blk = in.Targets[0]
		st.Idx = 0
		return false, true
	case ir.OpSwitch:
		return e.execSwitch(st, in, res)
	case ir.OpAssert:
		if stop := e.checkAssert(st, in, res); stop {
			return true, false
		}
	case ir.OpExit:
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermExit
		return true, false
	case ir.OpPrint:
		// no-op
	default:
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermError
		return true, false
	}
	return false, false
}

// mayBeTrue asks the solver whether cond can hold on st's path, returning
// a full witness model on success. Use feasible for yes/no questions — it
// is much cheaper on deep paths. Unknown degrades to "no": bug reports
// require a witness, so an inconclusive query must not file one.
func (e *Executor) mayBeTrue(st *State, cond *expr.Expr) (bool, expr.Assignment) {
	if cond.IsTrue() {
		return true, expr.Assignment{}
	}
	if cond.IsFalse() {
		return false, nil
	}
	if e.queryFeasible(st, cond) != solver.Sat {
		return false, nil
	}
	var hint expr.Assignment
	if e.concolic != nil {
		hint = e.concolic.asn
	}
	ok, m, _ := e.Solver.MayBeTrue(st.PathConstraints(), cond, hint)
	return ok, m
}

// feasible reports whether cond can hold on st's path, solving only the
// constraint slice that shares symbolic bytes with cond (sound because
// live states always have satisfiable path constraints). Unknown degrades
// to "yes": callers use a false answer to terminate states or prune
// paths, and an inconclusive query must never kill a reachable state. At
// worst the caller constrains the path with a condition that later proves
// unsatisfiable, and the state dies as infeasible.
func (e *Executor) feasible(st *State, cond *expr.Expr) bool {
	return e.queryFeasible(st, cond) != solver.Unsat
}

// execBranch handles OpBr, forking when both directions are feasible.
func (e *Executor) execBranch(st *State, in *ir.Instr, res *StepResult) (bool, bool) {
	cond := st.reg(e.Ctx, in.A, 1)
	if cond.IsConst() {
		st.Blk = in.Targets[1-int(cond.Value())]
		st.Idx = 0
		return false, true
	}
	if e.concolic != nil {
		return e.concolicBranch(st, in, cond, res)
	}
	if e.concretizeOnly {
		// Degraded mode: no feasibility queries, no forking — pin the
		// branch to its value under a concrete model of the path, exactly
		// like the doubly-Unknown fallback below. An inconsistent pin
		// kills the state as infeasible at a later check, never unsoundly.
		if e.concretizeCond(st, cond) {
			st.addConstraint(cond)
			st.Blk = in.Targets[0]
		} else {
			st.addConstraint(e.Ctx.NotB(cond))
			st.Blk = in.Targets[1]
		}
		st.Idx = 0
		return false, true
	}
	vs := e.edgeFeasible(st, []*expr.Expr{cond, e.Ctx.NotB(cond)})
	canTrue, canFalse := vs[0], vs[1]
	// A live state's path constraints are satisfiable, so an Unsat answer
	// on one side proves the other side feasible even when its own query
	// stayed Unknown.
	if canTrue == solver.Unknown && canFalse == solver.Unsat {
		canTrue = solver.Sat
	}
	if canFalse == solver.Unknown && canTrue == solver.Unsat {
		canFalse = solver.Sat
	}
	if canTrue == solver.Unknown && canFalse == solver.Unknown {
		// Both directions inconclusive after escalated retries: degrade to
		// concolic-style single-path execution by pinning the branch to
		// its value under a concrete model of the path.
		if e.concretizeCond(st, cond) {
			canTrue, canFalse = solver.Sat, solver.Unknown
		} else {
			canTrue, canFalse = solver.Unknown, solver.Sat
		}
	}
	switch {
	case canTrue == solver.Sat && canFalse == solver.Sat:
		if e.opts.MaxStates > 0 && e.liveStates >= e.opts.MaxStates {
			// fork suppressed: follow the true side only
			st.addConstraint(cond)
			st.Blk = in.Targets[0]
			st.Idx = 0
			return false, true
		}
		other := st.fork(e.nextStateID, e.clock)
		e.nextStateID++
		e.register(other)
		other.addConstraint(e.Ctx.NotB(cond))
		other.Blk = in.Targets[1]
		other.Idx = 0
		st.addConstraint(cond)
		st.Blk = in.Targets[0]
		st.Idx = 0
		res.Added = append(res.Added, other)
		attachToPTree(st, other)
		return true, true // fork ends the step; st is at a fresh block
	case canTrue == solver.Sat:
		// canFalse is Unsat or Unknown; an Unknown side is never forked
		// into (it would create a state with unvalidated constraints).
		st.addConstraint(cond)
		st.Blk = in.Targets[0]
		st.Idx = 0
		return false, true
	case canFalse == solver.Sat:
		st.addConstraint(e.Ctx.NotB(cond))
		st.Blk = in.Targets[1]
		st.Idx = 0
		return false, true
	default:
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermInfeasible
		return true, false
	}
}

// execSwitch handles OpSwitch, forking into every feasible case.
func (e *Executor) execSwitch(st *State, in *ir.Instr, res *StepResult) (bool, bool) {
	c := e.Ctx
	v := st.rawReg(c, in.A)
	if v.IsConst() {
		target := in.Targets[len(in.Vals)]
		for i, val := range in.Vals {
			if v.Value() == val {
				target = in.Targets[i]
				break
			}
		}
		st.Blk = target
		st.Idx = 0
		return false, true
	}
	if e.concolic != nil {
		return e.concolicSwitch(st, in, v, res)
	}
	if e.concretizeOnly {
		return e.concretizeSwitch(st, in, v)
	}
	// Edge i is guarded by conds[i]: one per case value, then the default.
	// Unknown arms are never forked into, but their presence means an
	// empty feasible set does not prove infeasibility.
	conds := make([]*expr.Expr, 0, len(in.Vals)+1)
	defCond := c.True()
	for _, val := range in.Vals {
		eq := c.EqE(v, c.Const(val, v.Width()))
		defCond = c.AndB(defCond, c.NotB(eq))
		conds = append(conds, eq)
	}
	conds = append(conds, defCond)
	var feasible []int
	anyUnknown := false
	for i, r := range e.edgeFeasible(st, conds) {
		switch r {
		case solver.Sat:
			feasible = append(feasible, i)
		case solver.Unknown:
			anyUnknown = true
		}
	}
	if len(feasible) == 0 {
		if anyUnknown {
			// every arm Unsat or Unknown: degrade by dispatching on the
			// switch value under a concrete model of the path
			return e.concretizeSwitch(st, in, v)
		}
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermInfeasible
		return true, false
	}
	// current state takes the first arm; fork the rest
	for _, i := range feasible[1:] {
		if e.opts.MaxStates > 0 && e.liveStates >= e.opts.MaxStates {
			break
		}
		other := st.fork(e.nextStateID, e.clock)
		e.nextStateID++
		e.register(other)
		other.addConstraint(conds[i])
		other.Blk = in.Targets[i]
		other.Idx = 0
		res.Added = append(res.Added, other)
		attachToPTree(st, other)
	}
	st.addConstraint(conds[feasible[0]])
	st.Blk = in.Targets[feasible[0]]
	st.Idx = 0
	if len(res.Added) > 0 {
		return true, true
	}
	return false, true
}

// edgeFeasible decides the successor edges of st's terminator, conds[i]
// guarding edge i (branch: cond, ¬cond; switch: each case, then the
// default). An edge the abstract-interpretation pass proved dead is
// Unsat without a query — no execution reaching the terminator can take
// it, so the solver would agree. The live edges go through
// queryFeasibleBatch as one sibling set.
func (e *Executor) edgeFeasible(st *State, conds []*expr.Expr) []solver.Result {
	out := make([]solver.Result, len(conds))
	live := make([]*expr.Expr, 0, len(conds))
	idx := make([]int, 0, len(conds))
	for i, cond := range conds {
		if e.opts.Static.EdgeInfeasible(st.Blk.ID, i) {
			e.Solver.NoteStaticPrune()
			out[i] = solver.Unsat
			continue
		}
		live = append(live, cond)
		idx = append(idx, i)
	}
	for j, r := range e.queryFeasibleBatch(st, st.PathConstraints(), live, true) {
		out[idx[j]] = r
	}
	return out
}

// concretizeSwitch degrades a symbolic switch — in concretize-only mode,
// or when every arm stayed Unsat or Unknown with at least one Unknown:
// the switch value is evaluated under a concrete model of the path and
// execution continues single-path into the matching arm.
func (e *Executor) concretizeSwitch(st *State, in *ir.Instr, v *expr.Expr) (bool, bool) {
	c := e.Ctx
	atomic.AddInt64(&e.gov.Concretizations, 1)
	cv := e.modelEvaluator(st).Eval(v)
	defCond := c.True()
	target := in.Targets[len(in.Vals)]
	var pin *expr.Expr
	for i, val := range in.Vals {
		eq := c.EqE(v, c.Const(val, v.Width()))
		defCond = c.AndB(defCond, c.NotB(eq))
		if pin == nil && cv == val {
			pin = eq
			target = in.Targets[i]
		}
	}
	if pin == nil {
		pin = defCond
	}
	st.addConstraint(pin)
	st.Blk = target
	st.Idx = 0
	return false, true
}

// checkDivByZero reports a bug when the divisor can be zero, then
// constrains it non-zero. Returns true when the state terminated.
func (e *Executor) checkDivByZero(st *State, in *ir.Instr, divisor *expr.Expr, res *StepResult) bool {
	c := e.Ctx
	zero := c.EqE(divisor, c.Const(0, divisor.Width()))
	if zero.IsFalse() {
		return false
	}
	if ok, m := e.mayBeTrue(st, zero); ok {
		e.report(st, in, bugs.DivByZero, "divisor can be zero", m, res)
		if zero.IsTrue() {
			e.terminate(st)
			res.Terminated = true
			res.Reason = TermFault
			return true
		}
	}
	nz := c.NotB(zero)
	if !e.feasible(st, nz) {
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return true
	}
	st.addConstraint(nz)
	return false
}

// checkAssert reports a bug when the assertion can fail, then constrains
// it to hold. Returns true when the state terminated.
func (e *Executor) checkAssert(st *State, in *ir.Instr, res *StepResult) bool {
	c := e.Ctx
	cond := st.reg(c, in.A, 1)
	if cond.IsTrue() {
		return false
	}
	if ok, m := e.mayBeTrue(st, c.NotB(cond)); ok {
		e.report(st, in, bugs.AssertFail, in.Msg, m, res)
	}
	if !e.feasible(st, cond) {
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return true
	}
	st.addConstraint(cond)
	return false
}

// report files a bug with a generated witness input.
func (e *Executor) report(st *State, in *ir.Instr, kind bugs.Kind, msg string, model expr.Assignment, res *StepResult) {
	idx := instrIndex(st.Blk, in)
	r := &bugs.Report{
		Kind:    kind,
		Func:    st.Blk.Fn.Name,
		Block:   st.Blk.Name,
		BlockID: st.Blk.ID,
		Index:   idx,
		Msg:     msg,
		Time:    e.clock,
		Phase:   -1,
	}
	if model != nil {
		if bs, ok := model[e.InputArr]; ok {
			input := make([]byte, e.opts.InputSize)
			copy(input, bs)
			r.Input = input
		}
	}
	if e.Bugs.Add(r) {
		res.Bug = r
	}
}

func instrIndex(b *ir.Block, in *ir.Instr) int {
	for i := range b.Instrs {
		if &b.Instrs[i] == in {
			return i
		}
	}
	return -1
}

func isDivOp(op ir.BinOp) bool {
	switch op {
	case ir.UDiv, ir.SDiv, ir.URem, ir.SRem:
		return true
	}
	return false
}

func applyBin(c *expr.Context, op ir.BinOp, a, b *expr.Expr) *expr.Expr {
	switch op {
	case ir.Add:
		return c.Add(a, b)
	case ir.Sub:
		return c.Sub(a, b)
	case ir.Mul:
		return c.Mul(a, b)
	case ir.UDiv:
		return c.UDiv(a, b)
	case ir.SDiv:
		return c.SDiv(a, b)
	case ir.URem:
		return c.URem(a, b)
	case ir.SRem:
		return c.SRem(a, b)
	case ir.And:
		return c.And(a, b)
	case ir.Or:
		return c.Or(a, b)
	case ir.Xor:
		return c.Xor(a, b)
	case ir.Shl:
		return c.Shl(a, b)
	case ir.LShr:
		return c.LShr(a, b)
	case ir.AShr:
		return c.AShr(a, b)
	default:
		panic(fmt.Sprintf("symex: unknown binop %s", op))
	}
}

func applyPred(c *expr.Context, p ir.Pred, a, b *expr.Expr) *expr.Expr {
	switch p {
	case ir.Eq:
		return c.EqE(a, b)
	case ir.Ne:
		return c.NeE(a, b)
	case ir.Ult:
		return c.UltE(a, b)
	case ir.Ule:
		return c.UleE(a, b)
	case ir.Ugt:
		return c.UgtE(a, b)
	case ir.Uge:
		return c.UgeE(a, b)
	case ir.Slt:
		return c.SltE(a, b)
	case ir.Sle:
		return c.SleE(a, b)
	case ir.Sgt:
		return c.SgtE(a, b)
	case ir.Sge:
		return c.SgeE(a, b)
	default:
		panic(fmt.Sprintf("symex: unknown pred %s", p))
	}
}

func coerceZ(c *expr.Context, e *expr.Expr, w uint) *expr.Expr {
	switch {
	case e.Width() == w:
		return e
	case e.Width() > w:
		return c.TruncE(e, w)
	default:
		return c.ZExtE(e, w)
	}
}

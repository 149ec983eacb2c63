package symex

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"pbse/internal/expr"
	"pbse/internal/solver"
)

// Resource governance: the executor's defenses against the three ways a
// KLEE-class engine dies in practice — pathological solver queries,
// runaway state sets, and bugs in instruction handling. Solver Unknowns
// are retried once with an escalated conflict budget and then degraded
// by concretization (the query never kills a reachable state); a panic
// while stepping one state quarantines that state and leaves the rest of
// the run intact; and under memory pressure the highest-cost states are
// evicted from the frontier instead of OOM-ing the process.

// GovStats counts resource-governance events during a run. The executor
// mutates the counters with atomics (see Gov), so concurrent readers —
// progress reporters, the parallel-scheduler hammer tests — never race
// with a stepping executor.
type GovStats struct {
	SolverUnknowns  int64 // queries whose first attempt returned Unknown
	SolverRetries   int64 // escalated-budget retries issued
	Concretizations int64 // branch/switch decisions degraded to a model value
	Quarantines     int64 // states terminated by the step panic boundary
	Evictions       int64 // states terminated by memory pressure
}

// Merge adds o's counters into g (used by the parallel scheduler's fixed
// phase-ordered reduction; the receiver must not be concurrently mutated).
func (g *GovStats) Merge(o GovStats) {
	g.SolverUnknowns += o.SolverUnknowns
	g.SolverRetries += o.SolverRetries
	g.Concretizations += o.Concretizations
	g.Quarantines += o.Quarantines
	g.Evictions += o.Evictions
}

// QuarantineRecord describes one quarantined state: the panic value and
// stack, plus where the state was executing.
type QuarantineRecord struct {
	StateID int
	Func    string
	Block   string
	Panic   string
	Stack   string
}

const (
	// budgetEscalation multiplies the solver conflict budget for the
	// single retry of an Unknown query (ISSUE: exponential backoff).
	budgetEscalation = 8
	// pressureInterval is how many StepBlock calls pass between
	// memory-pressure sweeps.
	pressureInterval = 64
	// maxQuarantineRecords caps the retained quarantine diagnostics.
	maxQuarantineRecords = 32
)

// Gov returns a snapshot of the governance counters accumulated so far.
// Counters are written with atomics, so Gov is safe to call while another
// goroutine is stepping this executor.
func (e *Executor) Gov() GovStats {
	return GovStats{
		SolverUnknowns:  atomic.LoadInt64(&e.gov.SolverUnknowns),
		SolverRetries:   atomic.LoadInt64(&e.gov.SolverRetries),
		Concretizations: atomic.LoadInt64(&e.gov.Concretizations),
		Quarantines:     atomic.LoadInt64(&e.gov.Quarantines),
		Evictions:       atomic.LoadInt64(&e.gov.Evictions),
	}
}

// QuarantineRecords returns the retained quarantine diagnostics (capped
// at maxQuarantineRecords; Gov().Quarantines is the true count).
func (e *Executor) QuarantineRecords() []QuarantineRecord { return e.quarantined }

// queryFeasible decides whether cond can hold on st's path: a
// one-condition queryFeasibleBatch.
func (e *Executor) queryFeasible(st *State, cond *expr.Expr) solver.Result {
	return e.queryFeasibleBatch(st, st.PathConstraints(), []*expr.Expr{cond}, true)[0]
}

// queryFeasibleBatch decides, for each sibling condition of one
// terminator (branch: cond/¬cond; switch: every live arm plus the
// default; bounds check: oob/in-bounds), whether it can hold on top of
// the constraint prefix — st's path constraints, except when validating
// a seedState (validatePC). The prefix is sliced ONCE for the whole
// sibling set and that union slice feeds both the static precheck and
// the SAT dispatch. Trivial and statically decided siblings are answered
// inline; the rest go through solver.FeasibleBatchSliced, which blasts
// the shared slice once. static enables the precheck against the
// abstract-interpretation facts of st's program point; it must be false
// when the prefix does not end at that point (validatePC), because the
// facts then describe only executions that already took the edge being
// validated.
//
// solver.Unknown is a first-class outcome: each Unknown sibling is
// counted in the governance counters and retried once, individually,
// with a budgetEscalation× conflict budget. The caller sees Unknown only
// when both attempts gave up.
func (e *Executor) queryFeasibleBatch(st *State, prefix, conds []*expr.Expr, static bool) []solver.Result {
	out := make([]solver.Result, len(conds))
	pending := make([]*expr.Expr, 0, len(conds))
	idx := make([]int, 0, len(conds))
	var slice []*expr.Expr
	sliced := false
	ensureSlice := func() []*expr.Expr {
		if !sliced {
			slice = e.Solver.Slice(prefix, conds)
			sliced = true
		}
		return slice
	}
	for i, cond := range conds {
		switch {
		case cond.IsTrue():
			out[i] = solver.Sat
		case cond.IsFalse():
			out[i] = solver.Unsat
		default:
			if static && e.opts.Static != nil {
				// Static pruning: try to decide the query from interval
				// facts before any SAT dispatch. Unsat verdicts are sound
				// unconditionally; Sat verdicts rely on live states keeping
				// satisfiable path constraints, which holds whenever no
				// query degraded to Unknown (GovStats.SolverUnknowns).
				if r := e.Solver.PreCheckSliced(ensureSlice(), cond, e.staticFacts(st)); r != solver.Unknown {
					out[i] = r
					continue
				}
			}
			pending = append(pending, cond)
			idx = append(idx, i)
		}
	}
	if len(pending) == 0 {
		return out
	}
	var hint expr.Assignment
	if e.concolic != nil {
		hint = e.concolic.asn
	}
	for j, v := range e.Solver.FeasibleBatchSliced(ensureSlice(), pending, hint) {
		r := v.Res
		if r == solver.Unknown {
			atomic.AddInt64(&e.gov.SolverUnknowns, 1)
			atomic.AddInt64(&e.gov.SolverRetries, 1)
			prev := e.Solver.SetMaxConflicts(e.Solver.MaxConflicts() * budgetEscalation)
			r, _ = e.Solver.Feasible(prefix, pending[j], hint)
			e.Solver.SetMaxConflicts(prev)
		}
		out[idx[j]] = r
	}
	return out
}

// validatePC decides a lazily-validated seedState's feasibility. The
// state's constraints are the concolic path's — satisfiable, the seed
// input executed it — plus the one negated-branch constraint appended at
// fork time, so the full-path check is equisatisfiable with one sliced
// feasibility query of that last constraint against the rest (dropped
// constraints share no symbolic bytes with the slice's closure and are
// themselves satisfiable).
func (e *Executor) validatePC(st *State) solver.Result {
	pc := st.PathConstraints()
	if len(pc) == 0 {
		return solver.Sat
	}
	return e.queryFeasibleBatch(st, pc[:len(pc)-1], pc[len(pc)-1:], false)[0]
}

// modelEvaluator returns an evaluator for some concrete input consistent
// with st's path — the degradation ladder's source of truth when a
// branch query stays Unknown. In concolic mode the shadow input is the
// only valid choice; otherwise a model of the path constraints is used
// (typically a candidate-cache hit). If even the model query gives up,
// the all-zero input is the final fallback: the pinned direction may
// then be inconsistent with the path, in which case the state dies as
// infeasible at a later check instead of progressing unsoundly.
func (e *Executor) modelEvaluator(st *State) *expr.Evaluator {
	if e.concolic != nil {
		return e.concolic.eval
	}
	if r, m, _ := e.Solver.Check(st.PathConstraints(), nil); r == solver.Sat {
		return expr.NewEvaluator(m)
	}
	return expr.NewEvaluator(expr.Assignment{e.InputArr: make([]byte, e.opts.InputSize)})
}

// concretizeCond degrades a doubly-Unknown branch: the condition is
// evaluated under a concrete model of the path and execution continues
// single-path in that direction.
func (e *Executor) concretizeCond(st *State, cond *expr.Expr) bool {
	atomic.AddInt64(&e.gov.Concretizations, 1)
	return e.modelEvaluator(st).EvalBool(cond)
}

// register tracks a newly created live state.
func (e *Executor) register(st *State) {
	e.liveStates++
	if e.live == nil {
		e.live = make(map[*State]struct{}, 64)
	}
	e.live[st] = struct{}{}
}

// quarantine converts a panic raised while stepping st into a
// terminated-with-error outcome for that state alone. Any states forked
// before the panic are complete and stay in res.Added.
func (e *Executor) quarantine(st *State, p any, res *StepResult) {
	e.terminate(st)
	atomic.AddInt64(&e.gov.Quarantines, 1)
	if len(e.quarantined) < maxQuarantineRecords {
		rec := QuarantineRecord{
			StateID: st.ID,
			Panic:   fmt.Sprint(p),
			Stack:   string(debug.Stack()),
		}
		if st.Blk != nil {
			rec.Func = st.Blk.Fn.Name
			rec.Block = st.Blk.Name
		}
		e.quarantined = append(e.quarantined, rec)
	}
	res.Terminated = true
	res.Reason = TermQuarantined
}

// maybeEvict runs the periodic memory-pressure sweep: when the estimated
// footprint of all live states (plus any injected phantom allocation)
// exceeds Options.MaxStateBytes, the highest-cost states are evicted —
// terminated so searchers drop them on next selection — highest cost
// first, never the currently stepping state, and never a pristine
// seedState (Algorithm 3's per-phase seeds survive pressure).
func (e *Executor) maybeEvict(cur *State) {
	e.stepsSincePressure++
	if e.stepsSincePressure < pressureInterval {
		return
	}
	e.stepsSincePressure = 0
	limit := e.opts.MaxStateBytes
	if limit <= 0 {
		return
	}
	total := e.inj.AllocPhantom()
	type stateCost struct {
		st    *State
		bytes int64
	}
	costs := make([]stateCost, 0, len(e.live))
	for st := range e.live {
		b := st.CostBytes()
		total += b
		costs = append(costs, stateCost{st, b})
	}
	if total <= limit {
		return
	}
	// deterministic order despite map iteration: evictable class first,
	// then cost descending, then newest state first
	sort.Slice(costs, func(i, j int) bool {
		pi, pj := evictClass(costs[i].st), evictClass(costs[j].st)
		if pi != pj {
			return pi < pj
		}
		if costs[i].bytes != costs[j].bytes {
			return costs[i].bytes > costs[j].bytes
		}
		return costs[i].st.ID > costs[j].st.ID
	})
	for _, c := range costs {
		if total <= limit {
			break
		}
		if c.st == cur {
			continue
		}
		if evictClass(c.st) > 0 {
			break // only protected seedStates remain
		}
		c.st.evicted = true
		e.terminate(c.st)
		atomic.AddInt64(&e.gov.Evictions, 1)
		total -= c.bytes
	}
}

// evictClass partitions states for eviction: 0 is evictable, higher is
// protected. Pristine seedStates — recorded by the concolic run and not
// yet executed — are the per-phase seeds of Algorithm 3; evicting one
// would silently disable its phase.
func evictClass(st *State) int {
	if st.SeedForkBlockID >= 0 && st.StepsExecuted == 0 {
		return 1
	}
	return 0
}

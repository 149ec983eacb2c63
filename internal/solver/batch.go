package solver

import (
	"sync"
	"time"

	"pbse/internal/expr"
)

// Batched sibling dispatch (DESIGN.md §12), the only feasibility
// pipeline and the only SAT path. A branch or switch terminator asks one
// feasibility question per successor edge, and all of those questions
// share the same path-constraint slice: cond and ¬cond read the same
// symbolic bytes, and every switch arm reads the scrutinee's.
// FeasibleBatchSliced runs the cheap pipeline (caches, candidates,
// intervals) per sibling and then blasts the shared slice ONCE into a
// single fresh SAT instance, deciding each leftover sibling under an
// assumption literal. Tseitin gates are biconditional, so an unasserted
// sibling leaves the formula unconstrained and each solve decides
// exactly slice ∧ cond. A single feasibility query (Feasible) is the
// one-sibling case, and Check is a one-entry batch with no assumption.
// Every instance is fresh, so a verdict and its model depend only on
// the query, never on what the solver answered before.
//
// Soundness of the shared slice: each sibling's own relevant slice is a
// subset of the union slice, and the extra constraints the union pulls
// in share no symbolic bytes with that sibling's closure (or they would
// be in it). Those extras are a subset of pc, and pc is satisfiable on
// a live state, so conjoining them can never flip a Sat sibling to
// Unsat — union ∧ cond is equisatisfiable with slice ∧ cond.

// BatchVerdict is one sibling's outcome: the verdict plus, on Unknown,
// the cause (ErrBudgetExhausted, ErrDeadlineExceeded, ErrInjected, or
// an *InternalError) — the same error surface as Feasible.
type BatchVerdict struct {
	Res Result
	Err error

	model expr.Assignment // the Sat model, returned by Check
}

// pendingQuery is a query that survived the cheap pipeline and needs the
// SAT core.
type pendingQuery struct {
	idx  int          // index into the caller's conds slice (batches only)
	cond *expr.Expr   // the assumed sibling condition; nil for Check
	live []*expr.Expr // the reduced constraint set (Check only)
	key  string       // local-cache key of the reduced constraint set
	skey uint64       // shared-cache fingerprint of the reduced set
}

// FeasibleBatchSliced decides pc ∧ conds[i] for every sibling condition
// at once, given the union Slice of pc for conds (a slice over a
// superset of conds is fine: it is still a subset of pc, so the
// equisatisfiability argument above is unchanged). Models are extracted
// only to feed the candidate caches. Every sibling is counted as a
// query; Stats.Batches counts the shared SAT instances and
// Stats.BatchedQueries the siblings decided on one.
func (s *Solver) FeasibleBatchSliced(slice []*expr.Expr, conds []*expr.Expr, hint expr.Assignment) []BatchVerdict {
	out := make([]BatchVerdict, len(conds))
	var pending []pendingQuery
	cs := make([]*expr.Expr, len(slice)+1)
	for i, cond := range conds {
		if cond.IsTrue() {
			out[i] = BatchVerdict{Res: Sat}
			continue
		}
		if cond.IsFalse() {
			out[i] = BatchVerdict{Res: Unsat}
			continue
		}
		copy(cs, slice)
		cs[len(slice)] = cond
		r, _, p, err := s.checkFast(cs, hint, true)
		if p == nil {
			out[i] = BatchVerdict{Res: r, Err: err}
			continue
		}
		p.idx = i
		p.cond = cond
		pending = append(pending, *p)
	}
	if len(pending) == 0 {
		return out
	}
	if len(pending) > 1 {
		s.stats.Batches++
		s.stats.BatchedQueries += int64(len(pending))
	}
	s.batchSAT(slice, pending, out)
	return out
}

// The slicer runs on every terminator and every bounds check, so it
// trades an exact SymByte set computation for the expression DAG's hash
// bitmasks (expr.ReadMask): each symbolic byte maps to one of 1024 bits,
// every node carries the OR of its reads' bits (built at hash-cons
// time), and the transitive-closure fixpoint reduces to word-wide AND/OR
// sweeps — no per-call read-set walks or memo probes at all. Hash
// collisions only ever ADD constraints to the slice, and a superset
// slice is sound everywhere it is used (see the equisatisfiability
// argument above, ConcretizeModel and PreCheckSliced): precision is a
// performance knob here, never a correctness one. Bit assignment is a pure function of array name and
// byte index, so sibling workers slice identically and the shared-cache
// keys they derive from the slices keep colliding (that is what makes
// cross-worker verdict reuse work).

// Slice returns the union relevant slice for a terminator's sibling
// conditions: the constraints of pc transitively connected to any of
// the conds through shared symbolic bytes (conservatively, modulo mask
// collisions — see above). The executor computes it once per terminator
// and reuses it for the static precheck (PreCheckSliced) and the SAT
// dispatch (FeasibleBatchSliced). With Options.DisableSlicing it returns
// a copy of the whole pc.
func (s *Solver) Slice(pc []*expr.Expr, conds []*expr.Expr) []*expr.Expr {
	if s.opts.DisableSlicing {
		return append([]*expr.Expr(nil), pc...)
	}
	var want expr.ReadMask
	for _, cond := range conds {
		if m := cond.ReadMask(); m != nil {
			for i, w := range m.W {
				want.W[i] |= w
			}
			want.Coarse |= m.Coarse
		}
	}
	if want.Coarse == 0 {
		return nil
	}
	// one pointer read per constraint; the fixpoint sweeps below are pure
	// word arithmetic. Scratch is solver-owned and reused across calls —
	// this runs on every terminator, so per-call allocation is real GC
	// pressure.
	if cap(s.maskScratch) < len(pc) {
		s.maskScratch = make([]*expr.ReadMask, len(pc)*2)
		s.pickScratch = make([]bool, len(pc)*2)
	}
	masks := s.maskScratch[:len(pc)]
	picked := s.pickScratch[:len(pc)]
	for i, c := range pc {
		masks[i] = c.ReadMask()
		// a read-free constraint is constant and can never join a slice
		picked[i] = masks[i] == nil
	}
	// The fixpoint scans newest-first: path constraints grow
	// chronologically and a sibling condition usually connects to recent
	// constraints, which connect to older ones — a backward chain that one
	// descending pass absorbs whole, where an ascending pass needs one
	// round per link. The Coarse prefilter (one AND) rejects most
	// disjoint constraints without touching the 16-word masks.
	n := 0
	for changed := true; changed; {
		changed = false
		for i := len(pc) - 1; i >= 0; i-- {
			if picked[i] {
				continue
			}
			m := masks[i]
			if m.Coarse&want.Coarse == 0 {
				continue
			}
			hit := false
			for j, w := range m.W {
				if w&want.W[j] != 0 {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			picked[i] = true
			n++
			want.Coarse |= m.Coarse
			for j, w := range m.W {
				if w&^want.W[j] != 0 {
					want.W[j] |= w
					changed = true
				}
			}
		}
	}
	// emit in pc order, the order every worker derives cache keys from
	out := make([]*expr.Expr, 0, n)
	for i, c := range pc {
		if picked[i] && masks[i] != nil {
			out = append(out, c)
		}
	}
	return out
}

// checkFast runs the cheap pipeline shared by Check and
// FeasibleBatchSliced — injector, trivial scan, bound reduction, local
// cache, shared cache, candidates, intervals — and stops before SAT
// dispatch. A nil *pendingQuery means the query was decided (or
// injected-Unknown) right here, with its model when one is at hand;
// otherwise the pending query carries the reduced constraints and the
// cache keys the SAT stage must publish under. verdictOnly marks
// queries whose caller discards the model (feasibility checks): only
// those may be answered by a Sat verdict from the shared cross-worker
// cache. Model-bearing queries take only Unsat from it — models are
// never shared, keeping each worker's model stream deterministic
// regardless of scheduling.
func (s *Solver) checkFast(constraints []*expr.Expr, hint expr.Assignment, verdictOnly bool) (Result, expr.Assignment, *pendingQuery, error) {
	s.stats.Queries++

	if inj := s.opts.Injector; inj != nil {
		if inj.SolverUnknown() {
			s.stats.Unknowns++
			s.stats.InjectedUnknowns++
			return Unknown, nil, nil, ErrInjected
		}
		if d, ok := inj.SolverSlow(); ok {
			time.Sleep(d) // an armed QueryDeadline trips in the SAT loop
		}
	}

	live := make([]*expr.Expr, 0, len(constraints))
	for _, c := range constraints {
		if c.IsTrue() {
			continue
		}
		if c.IsFalse() {
			return Unsat, nil, nil, nil
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return Sat, expr.Assignment{}, nil, nil
	}
	live = reduceBounds(live)

	key := ""
	if !s.opts.DisableCache {
		key = cacheKey(live)
		if e, ok := s.cache[key]; ok {
			s.stats.CacheHits++
			return e.result, e.model, nil, nil
		}
	}

	skey := uint64(0)
	if s.opts.Shared != nil {
		skey = s.sharedKey(live)
		if r, ok := s.opts.Shared.Get(skey); ok && (r == Unsat || verdictOnly) {
			s.stats.SharedHits++
			if r == Unsat {
				// a Sat verdict without a model must not enter the local
				// cache: later model-bearing queries would hit it
				s.remember(key, Unsat, nil)
			}
			return r, nil, nil, nil
		}
	}

	if !s.opts.DisableCandidates {
		if m, ok := s.tryCandidates(live, hint); ok {
			s.stats.CandidateSat++
			s.remember(key, Sat, m)
			if s.opts.Shared != nil {
				s.opts.Shared.Put(skey, Sat)
			}
			return Sat, m, nil, nil
		}
	}

	if !s.opts.DisableIntervals {
		if r := intervalCheck(live); r == Unsat {
			s.stats.IntervalFast++
			s.remember(key, Unsat, nil)
			if s.opts.Shared != nil {
				s.opts.Shared.Put(skey, Unsat)
			}
			return Unsat, nil, nil, nil
		}
	}

	return Unknown, nil, &pendingQuery{live: live, key: key, skey: skey}, nil
}

// blasterPool recycles blasters and their SAT instances across batchSAT
// calls. It is process-wide rather than per Solver, so an idle solver
// holds no instance and the GC may drop entries nobody uses; start()
// makes a recycled instance indistinguishable from a fresh one.
var blasterPool = sync.Pool{New: func() any { return newBlaster(newSAT()) }}

// batchSAT decides the pending queries on one fresh SAT instance: the
// shared slice is asserted true and blasted once, then each query's
// condition becomes an assumption literal for its own bounded solve (a
// nil condition solves the slice alone). It is the only code that
// builds a SAT instance, and it publishes every verdict: local and
// shared caches, recent candidates, the Unknown counters. A recovered
// internal invariant violation degrades the current and all remaining
// queries to Unknown (see the package panic policy); the half-built
// instance still goes back to the pool, as start() clears any state.
func (s *Solver) batchSAT(slice []*expr.Expr, pending []pendingQuery, out []BatchVerdict) {
	next := 0
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ie, ok := p.(*InternalError)
		if !ok {
			panic(p)
		}
		s.stats.InternalRecovered++
		for _, b := range pending[next:] {
			s.stats.Unknowns++
			out[b.idx] = BatchVerdict{Res: Unknown, Err: ie}
		}
	}()

	bl := blasterPool.Get().(*blaster)
	defer blasterPool.Put(bl)
	bl.start()
	st := bl.sat
	st.deadline = s.deadline()
	for _, c := range slice {
		bl.assertTrue(c)
	}
	for ; next < len(pending); next++ {
		b := &pending[next]
		s.stats.SATRuns++
		var assumps []Lit
		if b.cond != nil {
			assumps = []Lit{bl.blast(b.cond)[0]}
		}
		before := st.conflicts
		verdict := st.solveWith(assumps, s.opts.MaxConflicts)
		s.stats.Conflicts += st.conflicts - before
		switch verdict {
		case lFalse:
			s.remember(b.key, Unsat, nil)
			if s.opts.Shared != nil {
				s.opts.Shared.Put(b.skey, Unsat)
			}
			out[b.idx] = BatchVerdict{Res: Unsat}
		case lUndef:
			s.stats.Unknowns++
			out[b.idx] = BatchVerdict{Res: Unknown, Err: s.undefError(st)}
		default:
			m := extractModel(bl)
			st.reset()
			s.remember(b.key, Sat, m)
			if s.opts.Shared != nil {
				s.opts.Shared.Put(b.skey, Sat)
			}
			s.keepRecent(m)
			out[b.idx] = BatchVerdict{Res: Sat, model: m}
		}
	}
}

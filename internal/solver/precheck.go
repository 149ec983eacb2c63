package solver

import (
	"time"

	"pbse/internal/expr"
)

// deadline is the wall-clock cutoff for one SAT dispatch or one
// PreCheck/PreCheckSliced sweep, armed from Options.QueryDeadline (zero
// time when unbounded). An expired sweep gives up with Unknown — counted
// in Stats.PrecheckDeadlines — and lets the regular pipeline (which has
// its own deadline) take over, so a pathological fact set cannot stall
// a turn any more than a runaway SAT search can.
func (s *Solver) deadline() time.Time {
	if s.opts.QueryDeadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.opts.QueryDeadline)
}

func expiredDeadline(d time.Time) bool { return !d.IsZero() && !time.Now().Before(d) }

// RangeFact asserts that expression E always evaluates to a value in
// [Lo, Hi] on every execution reaching the current program point — a
// static invariant imported from the abstract-interpretation pass
// (analysis.AbsFacts mapped onto the state's register expressions).
type RangeFact struct {
	E      *expr.Expr
	Lo, Hi uint64
}

// PreCheck answers a branch-feasibility query from interval reasoning
// alone — no slicing, no caches, no SAT core, no budgets. facts seed
// the propagation with the externally proven ranges.
//
// Verdict semantics differ subtly from Feasible's:
//   - Unsat means cond evaluates to 0 under EVERY assignment allowed by
//     the facts. Since the facts are invariants implied by the path
//     constraints, pc AND cond is unsatisfiable — unconditionally sound.
//   - Sat means cond evaluates to 1 under every such assignment; it
//     proves pc AND cond satisfiable only when pc itself is satisfiable,
//     which holds for every state whose forks were solver-validated (the
//     caller is responsible for that precondition).
//
// A decided verdict is counted in Stats.StaticPrunes; the query never
// reaches Stats.Queries, keeping the fast path free.
func (s *Solver) PreCheck(cond *expr.Expr, facts []RangeFact) Result {
	switch {
	case cond.IsTrue():
		return Sat
	case cond.IsFalse():
		return Unsat
	}
	deadline := s.deadline()
	memo := make(map[*expr.Expr]interval, 32)
	for _, f := range facts {
		if expiredDeadline(deadline) {
			s.stats.PrecheckDeadlines++
			return Unknown
		}
		if f.E == nil || f.Lo > f.Hi {
			continue
		}
		w := f.E.Width()
		if f.Hi > maskW(w) {
			continue // malformed for this width; never trust it
		}
		cur, ok := memo[f.E]
		if !ok {
			cur = fullIval(w)
		}
		cur, ok = meet(cur, interval{lo: f.Lo, hi: f.Hi}, w)
		if !ok {
			// contradictory facts would make every verdict vacuous;
			// treat as no information rather than pruning on bad input
			return Unknown
		}
		memo[f.E] = cur
	}
	if expiredDeadline(deadline) {
		s.stats.PrecheckDeadlines++
		return Unknown
	}
	switch iv := ivalOf(cond, memo); {
	case iv.lo == 0 && iv.hi == 0:
		s.stats.StaticPrunes++
		return Unsat
	case iv.lo == 1 && iv.hi == 1:
		s.stats.StaticPrunes++
		return Sat
	}
	return Unknown
}

// PreCheckSliced is PreCheck strengthened with the path constraints:
// when cond alone is undecided, slice — the caller's Slice of the path
// for cond, computed once per terminator — is interval-checked with the
// facts seeding the propagation. This refutes conjunctions the plain
// pre-dispatch interval pass cannot — the in-solver interval stage sees
// the same slice but not the invariants, which often carry exactly the
// missing range (e.g. a loop bound proven by widening/narrowing that
// never appears as an explicit constraint).
//
// slice may be any subset of the path constraints (a superset union
// slice is fine), and only Unsat can be concluded from it: facts are
// implied by the FULL pc, so slice AND cond AND facts unsat forces pc
// AND cond unsat, while a satisfiable slice says nothing about the rest
// of the path. Extra sibling-only constraints can only seed more bounds,
// never unsound ones — they too are implied by the path. Nothing is
// cached — the verdict depends on facts private to the caller's program
// point, and keying the shared caches on the constraint set alone would
// leak it into contexts with different invariants.
func (s *Solver) PreCheckSliced(slice []*expr.Expr, cond *expr.Expr, facts []RangeFact) Result {
	if r := s.PreCheck(cond, facts); r != Unknown {
		return r
	}
	if len(facts) == 0 || len(slice) == 0 {
		return Unknown
	}
	deadline := s.deadline()
	cs := make([]*expr.Expr, 0, len(slice)+1)
	cs = append(cs, slice...)
	cs = append(cs, cond)
	memo := make(map[*expr.Expr]interval, 64)
	order := make([]*expr.Expr, 0, 16)
	for _, f := range facts {
		if f.E == nil || f.Lo > f.Hi || f.Hi > maskW(f.E.Width()) {
			continue
		}
		if _, ok := memo[f.E]; !ok {
			order = append(order, f.E)
		}
		memo[f.E] = interval{lo: f.Lo, hi: f.Hi}
	}
	// seedBoundsX meets the harvested pc bounds (including X == C pins)
	// into the fact-seeded memo; a contradiction means slice AND cond AND
	// facts is unsat outright
	if contradictory := seedBoundsX(cs, memo, &order, true); contradictory {
		s.stats.StaticPrunes++
		return Unsat
	}
	// Propagation sweeps: a harvested bound lands on a compound term
	// (say add(2, x) <= 576) and shadows what the term's operands imply
	// (x >= 575 forces add(2, x) >= 577). Recomputing each seeded term
	// from its operands and meeting the two ranges surfaces exactly those
	// contradictions. Two sweeps let a range seeded late in the pass reach
	// terms seeded earlier; the fixed order keeps every worker's verdict
	// identical. Stale entries after a later tightening are wider, never
	// wrong, so each meet stays sound.
	for sweep := 0; sweep < 2; sweep++ {
		for _, term := range order {
			if expiredDeadline(deadline) {
				s.stats.PrecheckDeadlines++
				return Unknown
			}
			cur := memo[term]
			delete(memo, term)
			fresh := ivalOf(term, memo)
			met, ok := meet(cur, fresh, term.Width())
			if !ok {
				s.stats.StaticPrunes++
				return Unsat
			}
			memo[term] = met
		}
	}
	for _, c := range cs {
		if expiredDeadline(deadline) {
			s.stats.PrecheckDeadlines++
			return Unknown
		}
		if iv := ivalOf(c, memo); iv.lo == 0 && iv.hi == 0 {
			s.stats.StaticPrunes++
			return Unsat
		}
	}
	return Unknown
}

// NoteStaticPrune records a feasibility decision made entirely outside
// the solver (the executor consulting the static edge-feasibility map),
// so Stats.StaticPrunes reflects every statically avoided query.
func (s *Solver) NoteStaticPrune() { s.stats.StaticPrunes++ }

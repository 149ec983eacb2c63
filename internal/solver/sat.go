// Package solver decides satisfiability of bitvector constraint sets and
// produces models (concrete assignments of symbolic input bytes).
//
// The pipeline mirrors what STP does for KLEE: expression simplification
// happens in package expr; this package adds candidate-model fast paths,
// unsigned interval propagation, read-mask slicing of feasibility
// queries, Tseitin bit-blasting to CNF, and a CDCL SAT solver with
// two-watched-literal propagation, VSIDS-style activities, first-UIP
// clause learning and Luby restarts. Every query that reaches SAT is
// decided on a fresh instance built by batchSAT (siblings of one
// terminator share it under assumption literals), so no CDCL state
// (learned clauses, activities, saved phases) carries from one query to
// the next. An instance's memory is recycled, though: batchSAT takes a
// blaster and its instance from a process-wide pool and start() clears
// them — every per-variable slice, the clause arena, the trail and the
// heap are truncated and each watch list is resliced to length zero —
// so a steady-state build allocates almost nothing, while the state it
// starts from is exactly that of a never-used instance.
//
// # Panic and error policy
//
// A solver query must never take down the engine: a caller holding a
// live execution state can always recover from "the solver proved
// nothing" by degrading (retry, concretize, drop the query). So every
// internal-invariant violation inside a query — a bit-blast width
// mismatch, an unloweable expression kind, a failed CDCL enqueue — is
// raised as an *InternalError via throwInternal and recovered at the
// batchSAT boundary (every SAT instance is built and solved there),
// where it becomes an Unknown verdict with the error attached. Plain
// panics are reserved for true programmer errors at the API edge
// (malformed expressions constructed outside this package), which no
// caller can meaningfully handle.
package solver

import (
	"fmt"
	"time"
)

// Lit is a SAT literal: variable v has positive literal v<<1 and negative
// literal v<<1|1.
type Lit int32

// NegLit returns the negation of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// Var returns l's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

func mkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

const (
	lUndef int8 = iota
	lTrue
	lFalse
)

// watcher is a clause reference watching a literal.
type watcher struct {
	clause  int32
	blocker Lit // quick check: if blocker is true the clause is satisfied
}

// clauseRef locates a clause's literals in the sat arena.
type clauseRef struct{ start, n int32 }

// sat is a CDCL SAT solver over clauses added with addClause.
type sat struct {
	lits     []Lit       // clause arena: every clause's literals, back to back
	clauses  []clauseRef // indexed by clause number
	watches  [][]watcher // indexed by literal
	assigns  []int8      // per var
	levels   []int32     // per var: decision level
	reasons  []int32     // per var: clause index or -1
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap
	polarity []bool // phase saving

	// analyze scratch: seen is per var and all false between calls;
	// learnt holds the clause being learned until attach copies it.
	seen   []bool
	learnt []Lit

	conflicts    int64
	decisions    int64
	propagations int64

	// deadline bounds the wall clock of the current solveWith call (zero
	// means none); undefReason records why the last call returned lUndef.
	deadline    time.Time
	undefReason int8

	// assumps are the assumption literals of the current solveWith call;
	// they are decided first, one per decision level.
	assumps []Lit

	ok bool // false once a top-level conflict is found
}

// Reasons for an lUndef verdict from solveWith.
const (
	undefNone int8 = iota
	undefBudget
	undefDeadline
)

func newSAT() *sat {
	return &sat{varInc: 1, ok: true}
}

// clear returns s to the state of newSAT() while keeping its memory:
// slices are truncated, not freed, so the next formula reuses them.
func (s *sat) clear() {
	s.lits = s.lits[:0]
	s.clauses = s.clauses[:0]
	s.watches = s.watches[:0] // newVar empties each list it reuses
	s.assigns = s.assigns[:0]
	s.levels = s.levels[:0]
	s.reasons = s.reasons[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.activity = s.activity[:0]
	s.varInc = 1
	s.heap.data = s.heap.data[:0]
	s.heap.pos = s.heap.pos[:0]
	s.polarity = s.polarity[:0]
	s.seen = s.seen[:0]
	s.learnt = s.learnt[:0]
	s.conflicts, s.decisions, s.propagations = 0, 0, 0
	s.deadline = time.Time{}
	s.undefReason = undefNone
	s.assumps = nil
	s.ok = true
}

// newVar allocates a fresh variable and returns its index.
func (s *sat) newVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.levels = append(s.levels, 0)
	s.reasons = append(s.reasons, -1)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, false)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// a recycled instance: keep the two lists' backing arrays
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.heap.push(v, s.activity)
	return v
}

// clause returns clause ci's literals; propagate reorders them in place.
func (s *sat) clause(ci int32) []Lit {
	c := s.clauses[ci]
	return s.lits[c.start : c.start+c.n : c.start+c.n]
}

func (s *sat) value(l Lit) int8 {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// addClause inserts a problem clause; returns false when the formula became
// trivially unsatisfiable.
func (s *sat) addClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// remove duplicate/false literals, detect tautology and satisfied
	// clauses (clauses are short: a scan of out beats a set)
	out := lits[:0]
next:
	for _, l := range lits {
		if s.value(l) == lTrue {
			return true // already satisfied
		}
		for _, o := range out {
			if o == l.Neg() {
				return true // tautology
			}
			if o == l {
				continue next
			}
		}
		if s.value(l) == lFalse {
			continue
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], -1) {
			s.ok = false
			return false
		}
		if s.propagate() >= 0 {
			s.ok = false
			return false
		}
		return true
	}
	s.attach(out)
	return true
}

// attach copies cl into the arena and watches its first two literals.
func (s *sat) attach(cl []Lit) int32 {
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, clauseRef{start: int32(len(s.lits)), n: int32(len(cl))})
	s.lits = append(s.lits, cl...)
	s.watches[cl[0].Neg()] = append(s.watches[cl[0].Neg()], watcher{clause: ci, blocker: cl[1]})
	s.watches[cl[1].Neg()] = append(s.watches[cl[1].Neg()], watcher{clause: ci, blocker: cl[0]})
	return ci
}

func (s *sat) enqueue(l Lit, reason int32) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.levels[v] = int32(s.decisionLevel())
	s.reasons[v] = reason
	s.trail = append(s.trail, l)
	return true
}

func (s *sat) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the index of a
// conflicting clause, or -1.
func (s *sat) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		kept := ws[:0]
		var conflict int32 = -1
	outer:
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			cl := s.clause(w.clause)
			// ensure the false literal is at cl[1]
			if cl[0] == p.Neg() {
				cl[0], cl[1] = cl[1], cl[0]
			}
			if s.value(cl[0]) == lTrue {
				kept = append(kept, watcher{clause: w.clause, blocker: cl[0]})
				continue
			}
			// find a new watch
			for k := 2; k < len(cl); k++ {
				if s.value(cl[k]) != lFalse {
					cl[1], cl[k] = cl[k], cl[1]
					s.watches[cl[1].Neg()] = append(s.watches[cl[1].Neg()], watcher{clause: w.clause, blocker: cl[0]})
					continue outer
				}
			}
			// clause is unit or conflicting
			kept = append(kept, w)
			if s.value(cl[0]) == lFalse {
				conflict = w.clause
				// copy the remaining watchers and stop
				kept = append(kept, ws[wi+1:]...)
				s.qhead = len(s.trail)
				break
			}
			if !s.enqueue(cl[0], w.clause) {
				throwInternal("enqueue of unit literal failed")
			}
		}
		s.watches[p] = kept
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *sat) analyze(conflict int32) ([]Lit, int) {
	learnt := append(s.learnt[:0], 0) // slot 0 for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	ci := conflict

	for {
		cl := s.clause(ci)
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason clause
		}
		for _, q := range cl[start:] {
			v := q.Var()
			if seen[v] || s.levels[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if int(s.levels[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// pick the next literal on the trail to resolve
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		ci = s.reasons[p.Var()]
	}
	learnt[0] = p.Neg()
	// every current-level var was unmarked on the trail walk; unmark the
	// rest so seen is all false for the next call
	for _, q := range learnt[1:] {
		seen[q.Var()] = false
	}
	s.learnt = learnt

	// compute backtrack level: max level among learnt[1:]
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.levels[learnt[i].Var()] > s.levels[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.levels[learnt[1].Var()])
	}
	return learnt, btLevel
}

func (s *sat) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

func (s *sat) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reasons[v] = -1
		s.heap.push(v, s.activity)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *sat) pickBranchVar() int {
	for {
		v := s.heap.pop(s.activity)
		if v < 0 {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// luby returns the i-th element of the Luby restart sequence (1-based).
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i >= 1<<(k-1) && i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// solveWith runs CDCL under the given assumption literals (decided first,
// one per level). It returns lTrue (sat), lFalse (unsat), or lUndef when
// the conflict budget or the deadline runs out. On lTrue the assignment is left intact for model
// extraction; call reset() before the next query. lFalse means the
// formula is unsatisfiable under the assumptions (the instance stays
// usable unless a level-0 conflict made it permanently unsat).
func (s *sat) solveWith(assumps []Lit, budget int64) int8 {
	if !s.ok {
		return lFalse
	}
	s.undefReason = undefNone
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.undefReason = undefDeadline
		return lUndef
	}
	if c := s.propagate(); c >= 0 {
		s.ok = false
		return lFalse
	}
	s.assumps = assumps
	startConflicts := s.conflicts
	var restartNum int64 = 1
	conflictsThisRestart := int64(0)
	restartBudget := luby(restartNum) * 64
	var iter int64

	for {
		iter++
		if iter&255 == 0 && !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.reset()
			s.undefReason = undefDeadline
			return lUndef
		}
		conflict := s.propagate()
		if conflict >= 0 {
			s.conflicts++
			conflictsThisRestart++
			if s.conflicts-startConflicts > budget {
				s.reset()
				s.undefReason = undefBudget
				return lUndef
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return lFalse
			}
			if s.decisionLevel() <= len(s.assumps) {
				// conflict depends only on assumptions: unsat under them
				s.reset()
				return lFalse
			}
			learnt, btLevel := s.analyze(conflict)
			if btLevel < len(s.assumps) {
				btLevel = len(s.assumps)
				if btLevel > s.decisionLevel()-1 {
					btLevel = s.decisionLevel() - 1
				}
			}
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				if s.decisionLevel() == 0 {
					if !s.enqueue(learnt[0], -1) {
						s.ok = false
						return lFalse
					}
				} else if s.value(learnt[0]) == lUndef {
					s.enqueue(learnt[0], -1)
				} else if s.value(learnt[0]) == lFalse {
					// falsified unit under assumptions
					s.reset()
					return lFalse
				}
			} else {
				ci := s.attach(learnt)
				if s.value(learnt[0]) == lUndef {
					s.enqueue(learnt[0], ci)
				}
			}
			s.varInc /= 0.95
			continue
		}
		if conflictsThisRestart >= restartBudget {
			restartNum++
			conflictsThisRestart = 0
			restartBudget = luby(restartNum) * 64
			s.backtrack(0)
			continue
		}
		// decide pending assumptions first, one per level
		if s.decisionLevel() < len(s.assumps) {
			p := s.assumps[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case lFalse:
				s.reset()
				return lFalse
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				if !s.enqueue(p, -1) {
					throwInternal("assumption enqueue failed")
				}
				continue
			}
		}
		v := s.pickBranchVar()
		if v < 0 {
			return lTrue // all variables assigned
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		if !s.enqueue(mkLit(v, !s.polarity[v]), -1) {
			throwInternal("decision enqueue failed")
		}
	}
}

// reset undoes all decisions, returning the instance to level 0 so new
// clauses can be added and another query solved.
func (s *sat) reset() {
	s.backtrack(0)
	s.assumps = nil
}

// modelValue returns the assigned truth of variable v (false if unassigned).
func (s *sat) modelValue(v int) bool { return s.assigns[v] == lTrue }

func (s *sat) String() string {
	return fmt.Sprintf("sat{vars=%d clauses=%d conflicts=%d decisions=%d props=%d}",
		len(s.assigns), len(s.clauses), s.conflicts, s.decisions, s.propagations)
}

// varHeap is an activity-ordered max-heap of variable indices.
type varHeap struct {
	data []int
	pos  []int // var -> index in data, -1 when absent
}

func (h *varHeap) ensure(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
}

func (h *varHeap) push(v int, act []float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		return
	}
	h.data = append(h.data, v)
	h.pos[v] = len(h.data) - 1
	h.up(len(h.data)-1, act)
}

func (h *varHeap) pop(act []float64) int {
	if len(h.data) == 0 {
		return -1
	}
	v := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[v] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return v
}

func (h *varHeap) update(v int, act []float64) {
	h.ensure(v)
	if h.pos[v] >= 0 {
		h.up(h.pos[v], act)
	}
}

func (h *varHeap) up(i int, act []float64) {
	v := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.data[p]] >= act[v] {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i]] = i
		i = p
	}
	h.data[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int, act []float64) {
	v := h.data[i]
	n := len(h.data)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && act[h.data[c+1]] > act[h.data[c]] {
			c++
		}
		if act[v] >= act[h.data[c]] {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i]] = i
		i = c
	}
	h.data[i] = v
	h.pos[v] = i
}

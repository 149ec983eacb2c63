package solver

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"pbse/internal/expr"
)

// Result is the outcome of a satisfiability check.
type Result int

// Check outcomes.
const (
	Unknown Result = iota
	Sat
	Unsat
)

// String returns "sat", "unsat" or "unknown".
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Stats counts solver activity; useful in benchmarks and ablations.
type Stats struct {
	Queries      int64
	CacheHits    int64
	SharedHits   int64 // verdicts answered by the cross-worker sharded cache
	CandidateSat int64 // decided by trying a candidate model
	IntervalFast int64 // decided by interval reasoning
	StaticPrunes int64 // decided before dispatch by PreCheck static facts
	SATRuns      int64 // fell through to bit-blasting + CDCL
	Conflicts    int64

	// Batched sibling dispatch (FeasibleBatchSliced): shared SAT
	// instances built for two or more siblings, and the sibling queries
	// decided on them (the common path-constraint slice is blasted once
	// instead of per query).
	Batches        int64
	BatchedQueries int64

	// Resource-governance counters: Unknown verdicts by cause.
	Unknowns          int64 // total Unknown verdicts returned
	BudgetExhausted   int64 // Unknowns from the conflict budget
	DeadlineExceeded  int64 // Unknowns from the wall-clock deadline
	InjectedUnknowns  int64 // Unknowns forced by fault injection
	InternalRecovered int64 // internal invariant violations degraded to Unknown

	// PrecheckDeadlines counts PreCheck/PreCheckSliced propagation sweeps
	// abandoned by the query deadline (the sweep answers Unknown and the
	// query proceeds to the regular pipeline, which has its own deadline).
	PrecheckDeadlines int64
}

// Accum adds o's counters into s (merging per-worker solver stats).
func (s *Stats) Accum(o Stats) {
	s.Queries += o.Queries
	s.CacheHits += o.CacheHits
	s.SharedHits += o.SharedHits
	s.CandidateSat += o.CandidateSat
	s.IntervalFast += o.IntervalFast
	s.StaticPrunes += o.StaticPrunes
	s.SATRuns += o.SATRuns
	s.Conflicts += o.Conflicts
	s.Batches += o.Batches
	s.BatchedQueries += o.BatchedQueries
	s.Unknowns += o.Unknowns
	s.BudgetExhausted += o.BudgetExhausted
	s.DeadlineExceeded += o.DeadlineExceeded
	s.InjectedUnknowns += o.InjectedUnknowns
	s.InternalRecovered += o.InternalRecovered
	s.PrecheckDeadlines += o.PrecheckDeadlines
}

// Injector is the fault-injection surface the solver consults (see
// package faultinject, which implements it). A nil injector injects
// nothing.
type Injector interface {
	// SolverUnknown reports whether this query should give up with
	// Unknown.
	SolverUnknown() bool
	// SolverSlow returns a wall-clock stall for this query and whether
	// the fault fired.
	SolverSlow() (time.Duration, bool)
}

// Options configure the solver; the zero value enables every fast path.
type Options struct {
	DisableCache      bool
	DisableCandidates bool
	DisableIntervals  bool
	DisableSlicing    bool  // Slice returns the whole pc
	MaxConflicts      int64 // 0 means a generous default
	// QueryDeadline bounds the wall clock of one SAT dispatch (a Check
	// call's, or one batch of siblings'; 0 means none). An expired
	// deadline yields Unknown with ErrDeadlineExceeded; cheap fast paths
	// (candidates, intervals) are never cut short.
	QueryDeadline time.Duration
	// Injector, when non-nil, is consulted per query for injected faults
	// (see package faultinject).
	Injector Injector
	// Shared, when non-nil, is a cross-worker verdict cache consulted
	// after the local cache. It stores Sat/Unsat only (no models), keyed
	// by structural fingerprint, so solvers in different expr.Contexts
	// share results. ShardedCache is the concrete implementation; a
	// scheduler may interpose a view that defers Put until a
	// synchronization point (see pbse's round barrier).
	Shared VerdictCache
}

// VerdictCache is the cross-worker verdict cache surface the solver
// consults after its local cache. Implementations must tolerate
// concurrent Get/Put from many solvers.
type VerdictCache interface {
	// Get returns the cached verdict for the fingerprint, if present.
	Get(key uint64) (Result, bool)
	// Put records a Sat/Unsat verdict (implementations ignore Unknown).
	Put(key uint64, r Result)
}

// Solver decides constraint sets built in one expr.Context. It is not safe
// for concurrent use.
type Solver struct {
	opts  Options
	stats Stats

	cache map[string]cacheEntry
	// recent satisfying assignments, tried as candidates for new queries
	recent []candidate
	// standing holds persistent candidate assignments (e.g. the pbSE
	// seed input), tried after the per-query hint
	standing []candidate
	// zeroFF caches the all-zero and all-0xff candidates per array set
	// signature (cheap: there is usually exactly one input array)
	zero, ff *candidate
	// fpMemo caches structural fingerprints (shared-cache keys)
	fpMemo map[*expr.Expr]uint64
	// maskScratch/pickScratch are reused fixpoint buffers for the union
	// slicer (one live call per solver; solvers are not concurrent).
	maskScratch []*expr.ReadMask
	pickScratch []bool
}

// candidate pairs an assignment with a persistent memoising evaluator:
// expressions are immutable and candidate assignments never change, so
// evaluation results stay valid across queries.
type candidate struct {
	asn expr.Assignment
	ev  *expr.Evaluator
}

func newCandidate(asn expr.Assignment) candidate {
	return candidate{asn: asn, ev: expr.NewEvaluator(asn)}
}

type cacheEntry struct {
	result Result
	model  expr.Assignment
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = 3000
	}
	return &Solver{
		opts:   opts,
		cache:  make(map[string]cacheEntry, 256),
		fpMemo: make(map[*expr.Expr]uint64, 1024),
	}
}

// AddCandidate registers a persistent candidate assignment tried on every
// query (e.g. the concolic seed, which satisfies every prefix of the seed
// path's constraints). The assignment must not be mutated afterwards.
func (s *Solver) AddCandidate(asn expr.Assignment) {
	if asn != nil {
		s.standing = append(s.standing, newCandidate(asn))
	}
}

// Feasible decides whether pc ∧ cond is satisfiable: a one-sibling
// FeasibleBatchSliced over cond's Slice of pc. It exploits the executor's
// invariant that pc alone is satisfiable: only the constraints sharing
// symbolic bytes (transitively) with cond need to be rechecked, which
// keeps branch-feasibility queries small on deep paths. On Unknown the
// error carries the cause (ErrBudgetExhausted, ErrDeadlineExceeded,
// ErrInjected, or an *InternalError).
func (s *Solver) Feasible(pc []*expr.Expr, cond *expr.Expr, hint expr.Assignment) (Result, error) {
	conds := []*expr.Expr{cond}
	v := s.FeasibleBatchSliced(s.Slice(pc, conds), conds, hint)[0]
	return v.Res, v.Err
}

// ConcretizeModel returns an assignment consistent with pc that gives e a
// concrete value. Only e's Slice of pc is solved — sound because pc is
// satisfiable (the caller's state is live) and the constraints left out
// share no symbolic bytes with the slice.
func (s *Solver) ConcretizeModel(pc []*expr.Expr, e *expr.Expr) (expr.Assignment, bool) {
	r, m, _ := s.Check(s.Slice(pc, []*expr.Expr{e}), nil)
	if r != Sat {
		return nil, false
	}
	return m, true
}

// Stats returns a copy of the accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// MaxConflicts returns the current per-query conflict budget.
func (s *Solver) MaxConflicts() int64 { return s.opts.MaxConflicts }

// SetMaxConflicts replaces the per-query conflict budget and returns the
// previous one. Callers use it to escalate the budget when retrying an
// Unknown query, restoring the old value afterwards.
func (s *Solver) SetMaxConflicts(n int64) int64 {
	prev := s.opts.MaxConflicts
	if n > 0 {
		s.opts.MaxConflicts = n
	}
	return prev
}

// Check decides whether the conjunction of constraints is satisfiable. On
// Sat the returned assignment satisfies every constraint. hint, when
// non-nil, is tried as the first candidate model (the concolic shadow
// state uses this). On Unknown the error reports why the solver gave up:
// ErrBudgetExhausted, ErrDeadlineExceeded, ErrInjected, or an
// *InternalError (a recovered invariant violation). Unknown results are
// never cached, so a retry with a bigger budget gets a fresh search.
// Past the cheap pipeline, Check is a one-entry batch: the whole reduced
// constraint set is blasted into a fresh instance and solved without
// assumptions, so the model depends only on the query.
func (s *Solver) Check(constraints []*expr.Expr, hint expr.Assignment) (Result, expr.Assignment, error) {
	r, m, p, err := s.checkFast(constraints, hint, false)
	if p == nil {
		return r, m, err
	}
	out := make([]BatchVerdict, 1)
	s.batchSAT(p.live, []pendingQuery{*p}, out)
	return out[0].Res, out[0].model, out[0].Err
}

// sharedKey folds the constraints' structural fingerprints into one
// order-independent set key for the cross-worker cache.
func (s *Solver) sharedKey(constraints []*expr.Expr) uint64 {
	fps := make([]uint64, len(constraints))
	for i, c := range constraints {
		fps[i] = expr.Fingerprint(c, s.fpMemo)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	h := uint64(14695981039346656037)
	for _, fp := range fps {
		for i := 0; i < 8; i++ {
			h ^= fp & 0xff
			h *= 1099511628211
			fp >>= 8
		}
	}
	return h
}

// MayBeTrue reports whether cond can hold under the path constraints; on
// true the model is a witness. A non-nil error means the verdict was
// Unknown (reported as "no") and carries the cause.
func (s *Solver) MayBeTrue(pc []*expr.Expr, cond *expr.Expr, hint expr.Assignment) (bool, expr.Assignment, error) {
	cs := make([]*expr.Expr, 0, len(pc)+1)
	cs = append(cs, pc...)
	cs = append(cs, cond)
	r, m, err := s.Check(cs, hint)
	return r == Sat, m, err
}

// reduceBounds collapses redundant unsigned range constraints over the
// same term: loop paths accumulate chains like n>0, n>1, …, n>k of which
// only the strongest matters. The reduction is an equivalence (the kept
// bound implies the dropped ones), so models stay valid. Recognised
// shapes, as produced by the expression canonicaliser:
//
//	(ult C X) / (ule C X)         lower bounds
//	(ult X C) / (ule X C)         upper bounds
//	(xor 1 (ult C X)) etc.        negations, flipped accordingly
func reduceBounds(live []*expr.Expr) []*expr.Expr {
	type bound struct {
		lo, hi       uint64 // inclusive bounds
		hasLo, hasHi bool
		loAt, hiAt   int // index of the strongest constraint
	}
	bounds := make(map[*expr.Expr]*bound)
	drop := make([]bool, len(live))

	widthMask := func(x *expr.Expr) uint64 {
		if x.Width() >= 64 {
			return ^uint64(0)
		}
		return (1 << x.Width()) - 1
	}

	// classify returns (term, lo-or-hi value, isLower, ok)
	classify := func(c *expr.Expr) (*expr.Expr, uint64, bool, bool) {
		neg := false
		if c.Kind() == expr.Xor && c.Kid(0).IsConst() && c.Kid(0).Value() == 1 && c.Kid(1).IsBool() {
			neg = true
			c = c.Kid(1)
		}
		if c.Kind() != expr.Ult && c.Kind() != expr.Ule {
			return nil, 0, false, false
		}
		a, b := c.Kid(0), c.Kid(1)
		strict := c.Kind() == expr.Ult
		switch {
		case a.IsConst() && !b.IsConst():
			// C < X or C <= X: lower bound (or, negated, upper bound)
			v := a.Value()
			if !neg {
				if strict {
					if v == widthMask(b) {
						return nil, 0, false, false // C < X unsat; leave to solver
					}
					v++
				}
				return b, v, true, true
			}
			// !(C < X) = X <= C ; !(C <= X) = X < C = X <= C-1
			if !strict {
				if v == 0 {
					return nil, 0, false, false
				}
				v--
			}
			return b, v, false, true
		case !a.IsConst() && b.IsConst():
			v := b.Value()
			if !neg {
				if strict {
					if v == 0 {
						return nil, 0, false, false
					}
					v--
				}
				return a, v, false, true
			}
			if !strict {
				if v == widthMask(a) {
					return nil, 0, false, false
				}
				v++
			}
			return a, v, true, true
		}
		return nil, 0, false, false
	}

	matched := 0
	for i, c := range live {
		term, v, isLower, ok := classify(c)
		if !ok {
			continue
		}
		matched++
		b := bounds[term]
		if b == nil {
			b = &bound{}
			bounds[term] = b
		}
		if isLower {
			if !b.hasLo || v > b.lo {
				if b.hasLo {
					drop[b.loAt] = true
				}
				b.lo, b.loAt, b.hasLo = v, i, true
			} else {
				drop[i] = true
			}
		} else {
			if !b.hasHi || v < b.hi {
				if b.hasHi {
					drop[b.hiAt] = true
				}
				b.hi, b.hiAt, b.hasHi = v, i, true
			} else {
				drop[i] = true
			}
		}
	}
	if matched <= 1 {
		return live
	}
	out := live[:0]
	for i, c := range live {
		if !drop[i] {
			out = append(out, c)
		}
	}
	return out
}

// undefError maps a SAT instance's lUndef reason to the public cause.
func (s *Solver) undefError(st *sat) error {
	if st.undefReason == undefDeadline {
		s.stats.DeadlineExceeded++
		return ErrDeadlineExceeded
	}
	s.stats.BudgetExhausted++
	return ErrBudgetExhausted
}

// extractModel reads the byte assignment out of a blaster whose SAT
// instance is in a satisfying state.
func extractModel(bl *blaster) expr.Assignment {
	bytes := bl.model()
	asn := expr.Assignment{}
	for sb, v := range bytes {
		bs, ok := asn[sb.Arr]
		if !ok {
			bs = make([]byte, sb.Arr.Size)
			asn[sb.Arr] = bs
		}
		bs[sb.Idx] = v
	}
	return asn
}

// tryCandidates evaluates all constraints under cheap candidate
// assignments: the caller hint, standing candidates (seed inputs), recent
// models, all-zero, all-0xff, and forced-byte propagation. Standing,
// recent and zero/ff candidates keep persistent memoising evaluators, so
// repeated constraints across queries cost one map lookup.
func (s *Solver) tryCandidates(constraints []*expr.Expr, hint expr.Assignment) (expr.Assignment, bool) {
	sat := func(ev *expr.Evaluator) bool {
		for _, c := range constraints {
			if !ev.EvalBool(c) {
				return false
			}
		}
		return true
	}
	for i := range s.standing {
		if sat(s.standing[i].ev) {
			return s.standing[i].asn.Clone(), true
		}
	}
	for i := range s.recent {
		if sat(s.recent[i].ev) {
			return s.recent[i].asn.Clone(), true
		}
	}
	arrays := arraysOf(constraints)
	s.ensureZeroFF(arrays)
	if s.zero != nil && sat(s.zero.ev) {
		return s.zero.asn.Clone(), true
	}
	if s.ff != nil && sat(s.ff.ev) {
		return s.ff.asn.Clone(), true
	}
	if hint != nil {
		ev := expr.NewEvaluator(hint)
		if sat(ev) {
			return hint.Clone(), true
		}
	}
	if forced := forcedBytes(constraints, arrays); forced != nil {
		ev := expr.NewEvaluator(forced)
		if sat(ev) {
			return forced, true
		}
	}
	return nil, false
}

// ensureZeroFF lazily builds the all-zero / all-0xff candidates covering
// the arrays seen so far (rebuilt when a new array appears).
func (s *Solver) ensureZeroFF(arrays []*expr.Array) {
	covered := s.zero != nil
	if covered {
		for _, a := range arrays {
			if _, ok := s.zero.asn[a]; !ok {
				covered = false
				break
			}
		}
	}
	if covered {
		return
	}
	zero := expr.Assignment{}
	ff := expr.Assignment{}
	if s.zero != nil {
		for a, bs := range s.zero.asn {
			zero[a] = bs
			ff[a] = s.ff.asn[a]
		}
	}
	for _, a := range arrays {
		if _, ok := zero[a]; ok {
			continue
		}
		zero[a] = make([]byte, a.Size)
		f := make([]byte, a.Size)
		for i := range f {
			f[i] = 0xff
		}
		ff[a] = f
	}
	z := newCandidate(zero)
	x := newCandidate(ff)
	s.zero, s.ff = &z, &x
}

// forcedBytes derives byte values implied by simple equality constraints
// (magic-byte checks such as in[0] == 0x7f) and returns an assignment with
// those bytes set. Starting from forced bytes makes parser-style queries
// succeed on the first candidate.
func forcedBytes(constraints []*expr.Expr, arrays []*expr.Array) expr.Assignment {
	asn := expr.Assignment{}
	for _, a := range arrays {
		asn[a] = make([]byte, a.Size)
	}
	found := false
	for _, c := range constraints {
		if c.Kind() != expr.Eq {
			continue
		}
		k, v := c.Kid(0), c.Kid(1)
		if !k.IsConst() {
			k, v = v, k
		}
		if !k.IsConst() {
			continue
		}
		if assignForced(asn, v, k.Value()) {
			found = true
		}
	}
	if !found {
		return nil
	}
	return asn
}

// assignForced writes the constant val into the bytes read by e when e is
// a direct (possibly extended or concatenated) read of input bytes.
func assignForced(asn expr.Assignment, e *expr.Expr, val uint64) bool {
	switch e.Kind() {
	case expr.Read:
		asn[e.Array()][e.ReadIndex()] = byte(val)
		return true
	case expr.ZExt, expr.SExt, expr.Trunc:
		return assignForced(asn, e.Kid(0), val)
	case expr.Concat:
		hi, lo := e.Kid(0), e.Kid(1)
		okLo := assignForced(asn, lo, val&((1<<lo.Width())-1))
		okHi := assignForced(asn, hi, val>>lo.Width())
		return okLo || okHi
	default:
		return false
	}
}

func (s *Solver) remember(key string, r Result, m expr.Assignment) {
	if s.opts.DisableCache || key == "" {
		return
	}
	if r == Unknown {
		// "gave up" is not a fact about the query: caching it would make
		// budget-escalated retries hit the cache and fail forever
		return
	}
	if len(s.cache) > 100000 {
		s.cache = make(map[string]cacheEntry, 256) // crude eviction
	}
	s.cache[key] = cacheEntry{result: r, model: m}
}

func (s *Solver) keepRecent(m expr.Assignment) {
	if s.opts.DisableCandidates || m == nil {
		return
	}
	const keep = 8
	s.recent = append(s.recent, newCandidate(m))
	if len(s.recent) > keep {
		s.recent = s.recent[len(s.recent)-keep:]
	}
}

func cacheKey(constraints []*expr.Expr) string {
	ids := make([]uint64, len(constraints))
	for i, c := range constraints {
		ids[i] = c.ID()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.Grow(len(ids) * 8)
	for _, id := range ids {
		b.WriteString(strconv.FormatUint(id, 36))
		b.WriteByte(',')
	}
	return b.String()
}

func arraysOf(constraints []*expr.Expr) []*expr.Array {
	seen := make(map[*expr.Expr]bool)
	set := make(map[expr.SymByte]bool)
	for _, c := range constraints {
		expr.CollectReads(c, seen, set)
	}
	am := make(map[*expr.Array]bool)
	for sb := range set {
		am[sb.Arr] = true
	}
	out := make([]*expr.Array, 0, len(am))
	for a := range am {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

package symex

import (
	"fmt"

	"pbse/internal/bugs"
	"pbse/internal/expr"
	"pbse/internal/ir"
	"pbse/internal/solver"
)

// resolved is the outcome of pointer resolution: the target object and a
// 64-bit byte-offset expression into it.
type resolved struct {
	objID uint32
	off   *expr.Expr // width 64
}

// resolveAddr decomposes an address expression into (object, offset). The
// object id must be concrete: either the whole address is constant, or it
// is const + symbolic where the constant carries the object id (the
// canonical form produced by pointer arithmetic on Alloca/Input
// pointers). A nil result means the pointer is wild.
func (e *Executor) resolveAddr(addr *expr.Expr) *resolved {
	c := e.Ctx
	var base uint64
	switch {
	case addr.IsConst():
		base = addr.Value()
	case addr.Kind() == expr.Add && addr.Kid(0).IsConst():
		base = addr.Kid(0).Value()
	default:
		return nil
	}
	id := ir.ObjID(base)
	if id == 0 {
		return nil
	}
	off := c.Sub(addr, c.Const(uint64(id)<<32, 64))
	return &resolved{objID: id, off: off}
}

// checkBounds reports an OOB bug when the access can exceed the object and
// constrains the state in-bounds. It returns the final offset expression
// (possibly concretised) or nil when the state terminated.
func (e *Executor) checkBounds(st *State, in *ir.Instr, r *resolved, size int, write bool, res *StepResult) *expr.Expr {
	c := e.Ctx
	obj := st.object(r.objID)
	if obj == nil {
		e.report(st, in, bugs.NullDeref, fmt.Sprintf("pointer references unknown object %d", r.objID), e.witness(st), res)
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return nil
	}
	kind := bugs.OOBRead
	if write {
		kind = bugs.OOBWrite
	}
	if obj.size < size {
		// the object cannot hold the access at any offset
		e.report(st, in, kind, fmt.Sprintf("%d-byte access into %d-byte object", size, obj.size), e.witness(st), res)
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return nil
	}
	limit := uint64(obj.size - size)
	inBounds := c.UleE(r.off, c.Const(limit, 64))
	if inBounds.IsTrue() {
		return r.off
	}
	oob := c.NotB(inBounds)
	// oob and inBounds read the same symbolic bytes, so both questions
	// resolve on one path slice and one SAT instance. The witness model a
	// report needs is only extracted when an OOB is actually possible
	// (mayBeTrue re-asks, but from a warm cache).
	vs := e.queryFeasibleBatch(st, st.PathConstraints(), []*expr.Expr{oob, inBounds}, true)
	if vs[0] == solver.Sat {
		// The full-path witness model is only worth solving once per
		// site: a success is deduplicated by the collector afterwards,
		// and a failure (witness solve gave up) would repeat the same
		// doomed query on every later execution of this instruction.
		wkey := int64(st.Blk.ID)<<32 | int64(uint32(instrIndex(st.Blk, in)))
		if !e.witnessTried[wkey] {
			if e.witnessTried == nil {
				e.witnessTried = make(map[int64]bool, 16)
			}
			e.witnessTried[wkey] = true
			if ok, m := e.mayBeTrue(st, oob); ok {
				e.report(st, in, kind,
					fmt.Sprintf("offset can reach beyond object %d (size %d, access %d bytes)", r.objID, obj.size, size), m, res)
			}
		}
	}
	// Unknown degrades to "yes" exactly like feasible: only a definite
	// Unsat may kill a reachable state.
	if vs[1] == solver.Unsat {
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return nil
	}
	st.addConstraint(inBounds)
	return r.off
}

// narrowOffset turns a symbolic in-bounds offset into something loadable:
// either it is constant, or its feasible range is small enough to build an
// ITE chain, or it gets concretised to a witness value (with the equality
// added as a constraint).
func (e *Executor) narrowOffset(st *State, off *expr.Expr) (lo, hi uint64, concretized bool, ok bool) {
	if off.IsConst() {
		v := off.Value()
		return v, v, false, true
	}
	l, h := solver.UnsignedRange(off)
	if h-l < uint64(e.opts.ITEThreshold) {
		return l, h, false, true
	}
	// In concolic mode the shadow value is the only concretisation
	// consistent with the concrete path the state is following.
	if e.concolic != nil {
		v := e.concolic.eval.Eval(off)
		st.addConstraint(e.Ctx.EqE(off, e.Ctx.Const(v, 64)))
		return v, v, true, true
	}
	// concretise: find one feasible value in off's constraint cone and
	// pin it
	m, ok2 := e.Solver.ConcretizeModel(st.PathConstraints(), off)
	if !ok2 {
		return 0, 0, false, false
	}
	v := expr.NewEvaluator(m).Eval(off)
	st.addConstraint(e.Ctx.EqE(off, e.Ctx.Const(v, 64)))
	return v, v, true, true
}

// execLoad evaluates an OpLoad; (value, stop). stop=true means the state
// terminated during the access checks.
func (e *Executor) execLoad(st *State, in *ir.Instr, res *StepResult) (*expr.Expr, bool) {
	c := e.Ctx
	size := int(in.Width) / 8
	if size == 0 {
		size = 1
	}
	addr := c.Add(st.reg(c, in.A, 64), c.Const(in.Imm, 64))
	r := e.resolveAddr(addr)
	if r == nil {
		e.report(st, in, bugs.NullDeref, "load through wild or null pointer", e.witness(st), res)
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return nil, true
	}
	off := e.checkBounds(st, in, r, size, false, res)
	if off == nil {
		return nil, true
	}
	obj := st.object(r.objID)
	lo, hi, _, ok := e.narrowOffset(st, off)
	if !ok {
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermInfeasible
		return nil, true
	}
	if lo > uint64(obj.size) || int(lo)+size > obj.size {
		// The concretised offset is outside the object. In concolic mode
		// this is the concrete crash itself (the bug was already
		// reported by checkBounds); for pure symbolic states it would be
		// an engine invariant violation. Either way the path ends here.
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return nil, true
	}
	if lo == hi {
		return e.loadAt(obj, int(lo), size), false
	}
	// ITE chain over the feasible window [lo, hi]
	val := e.loadAt(obj, int(lo), size)
	for o := lo + 1; o <= hi; o++ {
		if int(o)+size > obj.size {
			break
		}
		cond := c.EqE(off, c.Const(o, 64))
		val = c.ITEe(cond, e.loadAt(obj, int(o), size), val)
	}
	return val, false
}

// loadAt reads size bytes little-endian at a concrete offset.
func (e *Executor) loadAt(obj *mobject, off, size int) *expr.Expr {
	c := e.Ctx
	v := obj.byteExpr(c, off)
	for i := 1; i < size; i++ {
		v = c.Concat(obj.byteExpr(c, off+i), v)
	}
	return v
}

// execStore evaluates an OpStore; returns stop=true when the state
// terminated.
func (e *Executor) execStore(st *State, in *ir.Instr, res *StepResult) bool {
	c := e.Ctx
	size := int(in.Width) / 8
	if size == 0 {
		size = 1
	}
	addr := c.Add(st.reg(c, in.A, 64), c.Const(in.Imm, 64))
	r := e.resolveAddr(addr)
	if r == nil {
		e.report(st, in, bugs.NullDeref, "store through wild or null pointer", e.witness(st), res)
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return true
	}
	off := e.checkBounds(st, in, r, size, true, res)
	if off == nil {
		return true
	}
	val := st.reg(c, in.B, uint(in.Width))
	lo, hi, _, ok := e.narrowOffset(st, off)
	if !ok {
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermInfeasible
		return true
	}
	if lo != hi {
		// Symbolic store: concretise the offset to a feasible witness
		// value (a documented simplification; KLEE forks per object
		// instead). Concolic states use the shadow value, the only one
		// consistent with the concrete path.
		if e.concolic != nil {
			lo = e.concolic.eval.Eval(off)
		} else {
			m, ok2 := e.Solver.ConcretizeModel(st.PathConstraints(), off)
			if !ok2 {
				e.terminate(st)
				res.Terminated = true
				res.Reason = TermInfeasible
				return true
			}
			lo = expr.NewEvaluator(m).Eval(off)
		}
		st.addConstraint(c.EqE(off, c.Const(lo, 64)))
	}
	if lo > uint64(obj0Size(st, r.objID)) || int(lo)+size > obj0Size(st, r.objID) {
		e.terminate(st)
		res.Terminated = true
		res.Reason = TermFault
		return true
	}
	obj := st.writable(r.objID)
	for i := 0; i < size; i++ {
		b := c.TruncE(c.LShr(val, c.Const(uint64(8*i), val.Width())), 8)
		obj.setByte(int(lo)+i, b)
	}
	return false
}

// obj0Size returns the byte size of an object in st.
func obj0Size(st *State, id uint32) int { return st.object(id).size }

// witness produces a model of the current path constraints for bug
// test-case generation (nil when none can be found quickly).
func (e *Executor) witness(st *State) expr.Assignment {
	r, m, _ := e.Solver.Check(st.PathConstraints(), nil)
	if r != solver.Sat {
		return nil
	}
	return m
}

package solver

import (
	"math/rand"
	"testing"

	"pbse/internal/expr"
)

// TestReduceBoundsKeepsStrongest: chains of lower/upper bounds over one
// term collapse to the strongest of each.
func TestReduceBoundsKeepsStrongest(t *testing.T) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 2)
	x := c.ReadLE(arr, 0, 2)
	cs := []*expr.Expr{
		c.UltE(c.Const(0, 16), x),   // x > 0
		c.UltE(c.Const(5, 16), x),   // x > 5
		c.UltE(c.Const(3, 16), x),   // x > 3
		c.UleE(x, c.Const(100, 16)), // x <= 100
		c.UltE(x, c.Const(50, 16)),  // x < 50
	}
	out := reduceBounds(cs)
	if len(out) != 2 {
		t.Fatalf("got %d constraints, want 2: %v", len(out), out)
	}
	// must keep x > 5 and x < 50
	keep := map[*expr.Expr]bool{}
	for _, e := range out {
		keep[e] = true
	}
	if !keep[cs[1]] || !keep[cs[4]] {
		t.Errorf("wrong constraints kept: %v", out)
	}
}

// TestReduceBoundsEquivalence: the reduced set must be logically
// equivalent to the original on random assignments.
func TestReduceBoundsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := expr.NewContext()
	arr := expr.NewArray("in", 4)
	for iter := 0; iter < 60; iter++ {
		x := c.ReadLE(arr, rng.Intn(3), 2)
		var cs []*expr.Expr
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			v := c.Const(uint64(rng.Intn(1000)), 16)
			var e *expr.Expr
			switch rng.Intn(4) {
			case 0:
				e = c.UltE(v, x)
			case 1:
				e = c.UleE(v, x)
			case 2:
				e = c.UltE(x, v)
			default:
				e = c.UleE(x, v)
			}
			if rng.Intn(3) == 0 {
				e = c.NotB(e)
			}
			cs = append(cs, e)
		}
		orig := make([]*expr.Expr, len(cs))
		copy(orig, cs)
		reduced := reduceBounds(cs)
		for trial := 0; trial < 16; trial++ {
			bs := make([]byte, 4)
			rng.Read(bs)
			ev := expr.NewEvaluator(expr.Assignment{arr: bs})
			allOrig, allRed := true, true
			for _, e := range orig {
				if !ev.EvalBool(e) {
					allOrig = false
				}
			}
			for _, e := range reduced {
				if !ev.EvalBool(e) {
					allRed = false
				}
			}
			if allOrig != allRed {
				t.Fatalf("iter %d: reduction changed semantics (orig=%v red=%v)\norig: %v\nred: %v",
					iter, allOrig, allRed, orig, reduced)
			}
		}
	}
}

func TestReduceBoundsMixedTermsUntouched(t *testing.T) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 4)
	x := c.ByteAt(arr, 0)
	y := c.ByteAt(arr, 1)
	cs := []*expr.Expr{
		c.UltE(c.Const(1, 8), x),
		c.UltE(c.Const(2, 8), y),
		c.EqE(x, y), // not a bound; must survive
	}
	out := reduceBounds(cs)
	if len(out) != 3 {
		t.Errorf("independent terms should keep all constraints: %v", out)
	}
}

// TestSeedBoundsContradiction: directly contradictory bounds decide Unsat
// without SAT.
func TestSeedBoundsContradiction(t *testing.T) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 2)
	x := c.ReadLE(arr, 0, 2)
	s := New(Options{DisableCandidates: true, DisableCache: true})
	r, _, _ := s.Check([]*expr.Expr{
		c.UltE(c.Const(100, 16), x), // x > 100
		c.UltE(x, c.Const(50, 16)),  // x < 50
	}, nil)
	if r != Unsat {
		t.Fatalf("got %v, want unsat", r)
	}
	if s.Stats().SATRuns != 0 {
		t.Errorf("contradictory bounds should not reach SAT (runs=%d)", s.Stats().SATRuns)
	}
}

// TestSeededIntervalRefutesLoopExit: the common loop pattern — a sibling
// constraint pins the bound, the query steps past it.
func TestSeededIntervalRefutesLoopExit(t *testing.T) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 2)
	n := c.ZExtE(c.ReadLE(arr, 0, 2), 32)
	s := New(Options{DisableCandidates: true, DisableCache: true})
	r, _, _ := s.Check([]*expr.Expr{
		c.NotB(c.UltE(c.Const(3, 32), n)), // n <= 3
		c.UltE(c.Const(7, 32), n),         // query: n > 7
	}, nil)
	if r != Unsat {
		t.Fatalf("got %v, want unsat", r)
	}
	if s.Stats().SATRuns != 0 {
		t.Errorf("interval seeding should have decided (runs=%d)", s.Stats().SATRuns)
	}
}

// TestFeasibleMatchesMayBeTrue: the sliced feasibility check agrees with
// the full check whenever the path constraints are satisfiable.
func TestFeasibleMatchesMayBeTrue(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := expr.NewContext()
	arr := expr.NewArray("in", 3)
	for iter := 0; iter < 60; iter++ {
		// build a satisfiable pc by construction: pick an assignment and
		// only keep constraints it satisfies
		bs := make([]byte, 3)
		rng.Read(bs)
		ev := expr.NewEvaluator(expr.Assignment{arr: bs})
		var pc []*expr.Expr
		for len(pc) < 4 {
			e := expr.RandBoolExpr(c, rng, arr, 2)
			if ev.EvalBool(e) {
				pc = append(pc, e)
			}
		}
		cond := expr.RandBoolExpr(c, rng, arr, 2)
		s1 := New(Options{})
		s2 := New(Options{})
		gotR, _ := s1.Feasible(pc, cond, nil)
		got := gotR == Sat
		want, _, _ := s2.MayBeTrue(pc, cond, nil)
		if got != want {
			t.Fatalf("iter %d: Feasible=%v MayBeTrue=%v\npc: %v\ncond: %v", iter, got, want, pc, cond)
		}
	}
}

func TestConcretizeModelConsistent(t *testing.T) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 4)
	x := c.ZExtE(c.ReadLE(arr, 0, 2), 32)
	y := c.ZExtE(c.ReadLE(arr, 2, 2), 32)
	pc := []*expr.Expr{
		c.UltE(c.Const(10, 32), x), // x > 10
		c.UltE(x, c.Const(20, 32)), // x < 20
		c.EqE(y, c.Const(7, 32)),   // independent group
	}
	s := New(Options{})
	m, ok := s.ConcretizeModel(pc, x)
	if !ok {
		t.Fatal("concretize failed")
	}
	v := expr.NewEvaluator(m).Eval(x)
	if v <= 10 || v >= 20 {
		t.Errorf("concretized x = %d, want in (10,20)", v)
	}
}

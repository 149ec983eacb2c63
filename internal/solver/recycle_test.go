package solver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pbse/internal/expr"
)

// chainedQuery is the 47-constraint query of
// TestCheckModelIndependentOfHistory (which keeps its own copy, so the
// model-independence gate stays as it was written) over a 16-byte
// array: every byte exceeds its index plus off, and neighbouring bytes
// differ.
func chainedQuery(c *expr.Context, arr *expr.Array, off uint64) []*expr.Expr {
	var cs []*expr.Expr
	for i := 0; i < 16; i++ {
		bi := c.ByteAt(arr, i)
		k := c.Const(uint64(i)+off, 8)
		cs = append(cs, c.NeE(bi, k), c.UleE(k, bi))
		if i > 0 {
			cs = append(cs, c.NeE(c.ByteAt(arr, i-1), bi))
		}
	}
	return cs
}

// state renders every field of s. fmt prints nil and empty slices
// alike, as it must: a cleared instance holds empty slices where a new
// one holds nil.
func state(s *sat) string { return fmt.Sprintf("%+v", *s) }

// TestRecycledInstanceMatchesFresh: after start(), a blaster and its
// instance build and solve a formula exactly as a never-used pair does,
// whatever the previous use left behind — a larger solved formula, a
// budget or deadline Unknown, a level-0 conflict, or a build abandoned
// by a recovered InternalError.
func TestRecycledInstanceMatchesFresh(t *testing.T) {
	c := expr.NewContext()
	big := expr.NewArray("big", 4)
	small := expr.NewArray("small", 16)
	slice := chainedQuery(c, small, 0)
	cond := c.UltE(c.ByteAt(small, 3), c.ByteAt(small, 2))

	type outcome struct {
		built, solved string
		verdict       int8
		model         map[expr.SymByte]byte
	}
	run := func(bl *blaster) outcome {
		for _, cst := range slice {
			bl.assertTrue(cst)
		}
		a := bl.blast(cond)[0]
		var o outcome
		o.built = state(bl.sat)
		o.verdict = bl.sat.solveWith([]Lit{a}, 1_000_000)
		if o.verdict == lTrue {
			o.model = bl.model()
		}
		o.solved = state(bl.sat)
		return o
	}
	ref := newBlaster(newSAT())
	fresh := run(ref)
	if fresh.verdict != lTrue || ref.sat.decisions == 0 {
		t.Fatalf("reference formula: verdict %d after %d decisions, want a searched sat", fresh.verdict, ref.sat.decisions)
	}

	bl := newBlaster(newSAT())
	st := bl.sat
	assertAll := func(cs []*expr.Expr) {
		for _, cst := range cs {
			bl.assertTrue(cst)
		}
	}
	dirty := []struct {
		name string
		use  func() string // returns why the use failed to dirty, or ""
	}{
		{"larger formula solved", func() string {
			assertAll(hardFactoringQuery(c, big))
			if v := st.solveWith(nil, 1_000_000); v != lTrue {
				return "factoring query not sat"
			}
			bl.model()
			st.reset()
			if len(st.clauses) <= len(ref.sat.clauses) || len(st.assigns) <= len(ref.sat.assigns) {
				return "factoring instance not larger than the reference"
			}
			return ""
		}},
		{"conflict budget", func() string {
			assertAll(hardFactoringQuery(c, big))
			if v := st.solveWith(nil, 1); v != lUndef || st.undefReason != undefBudget {
				return "no budget Unknown"
			}
			return ""
		}},
		{"expired deadline", func() string {
			st.deadline = time.Now().Add(-time.Second)
			assertAll(hardFactoringQuery(c, big))
			if v := st.solveWith(nil, 1_000_000); v != lUndef || st.undefReason != undefDeadline {
				return "no deadline Unknown"
			}
			return ""
		}},
		{"level-0 conflict", func() string {
			b0 := c.ByteAt(big, 0)
			assertAll([]*expr.Expr{c.EqE(b0, c.Const(1, 8)), c.EqE(b0, c.Const(2, 8))})
			if v := st.solveWith(nil, 1_000_000); v != lFalse || st.ok {
				return "formula not refuted at level 0"
			}
			return ""
		}},
		{"abandoned build", func() (why string) {
			defer func() {
				if _, ok := recover().(*InternalError); !ok {
					why = "no InternalError"
				}
			}()
			// half a formula and an open decision level, as a throw from
			// the middle of a build or a solve leaves them
			q := hardFactoringQuery(c, big)
			assertAll(q[:1])
			st.trailLim = append(st.trailLim, len(st.trail))
			st.enqueue(bl.blast(q[1])[0], -1)
			st.propagate()
			throwInternal("abandoned")
			return ""
		}},
	}
	for _, d := range dirty {
		bl.start()
		if why := d.use(); why != "" {
			t.Fatalf("%s: %s", d.name, why)
		}
		bl.start()
		got := run(bl)
		if got.built != fresh.built {
			t.Errorf("after %s: recycled instance built differently from a fresh one", d.name)
		}
		if got.verdict != fresh.verdict || !reflect.DeepEqual(got.model, fresh.model) {
			t.Errorf("after %s: verdict %d model %v, fresh %d %v", d.name, got.verdict, got.model, fresh.verdict, fresh.model)
		}
		if got.solved != fresh.solved {
			t.Errorf("after %s: recycled instance solved differently from a fresh one", d.name)
		}
	}
}

// TestCheckAllocsRecycled bounds the allocations of a warm Check that
// reaches SAT: with a pooled instance, building it allocates almost
// nothing (a fresh instance per query made about 5,300 allocations).
func TestCheckAllocsRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	c := expr.NewContext()
	arr := expr.NewArray("in", 16)
	query := chainedQuery(c, arr, 0)
	s := New(Options{DisableCache: true, DisableCandidates: true, DisableIntervals: true})
	if r, _, _ := s.Check(query, nil); r != Sat {
		t.Fatalf("query: %v, want sat", r)
	}
	before := s.Stats().SATRuns
	n := testing.AllocsPerRun(20, func() { s.Check(query, nil) })
	if s.Stats().SATRuns == before {
		t.Fatal("Check did not reach SAT")
	}
	if n > 500 {
		t.Fatalf("warm Check made %.0f allocations, want <= 500", n)
	}
	t.Logf("warm Check: %.0f allocations", n)
}

// TestPooledInstancesConcurrent: solvers on different goroutines share
// the instance pool but never each other's state — eight concurrent
// runs of one query list return the verdicts and models of a serial
// run.
func TestPooledInstancesConcurrent(t *testing.T) {
	type outcome struct {
		res    []Result
		models [][]byte
	}
	run := func() outcome {
		c := expr.NewContext()
		arr := expr.NewArray("in", 16)
		big := expr.NewArray("big", 4)
		s := New(Options{DisableCandidates: true})
		var o outcome
		record := func(r Result, m expr.Assignment) {
			o.res = append(o.res, r)
			var bs []byte
			if m != nil {
				for i := 0; i < 16; i++ {
					bs = append(bs, m.ByteOf(arr, i))
				}
				for i := 0; i < 4; i++ {
					bs = append(bs, m.ByteOf(big, i))
				}
			}
			o.models = append(o.models, bs)
		}
		for off := uint64(0); off < 4; off++ {
			q := chainedQuery(c, arr, off)
			r, m, _ := s.Check(q, nil)
			record(r, m)
			b0, b1 := c.ByteAt(arr, 0), c.ByteAt(arr, 1)
			conds := []*expr.Expr{
				c.EqE(b0, c.Const(off+3, 8)),
				c.UltE(b1, b0),
				c.EqE(b1, c.Const(off, 8)),
			}
			for _, v := range s.FeasibleBatchSliced(q, conds, nil) {
				record(v.Res, v.model)
			}
			r, m, _ = s.Check(append(hardFactoringQuery(c, big), c.UltE(c.Const(off, 8), c.ByteAt(big, 0))), nil)
			record(r, m)
		}
		return o
	}
	want := run()
	var got [8]outcome
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Errorf("goroutine %d: verdicts %v models %v, serial %v %v", i, g.res, g.models, want.res, want.models)
		}
	}
}

var sinkAssignment expr.Assignment

// BenchmarkBatchSAT measures one SAT-reaching Check of the 47-constraint
// query with every fast path off: instance build, blast and CDCL run.
func BenchmarkBatchSAT(b *testing.B) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 16)
	query := chainedQuery(c, arr, 0)
	s := New(Options{DisableCache: true, DisableCandidates: true, DisableIntervals: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, m, _ := s.Check(query, nil)
		if r != Sat {
			b.Fatalf("query: %v, want sat", r)
		}
		sinkAssignment = m
	}
}

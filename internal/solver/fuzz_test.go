package solver

import (
	"math/rand"
	"testing"

	"pbse/internal/expr"
)

// FuzzCheckSoundness feeds the solver random constraint conjunctions
// (1 to 30 of them) and checks the soundness directions the engine
// depends on: a Sat model must actually satisfy every constraint under
// direct evaluation, an Unsat verdict must survive removal of the
// interval prepass (the fast path must never manufacture an
// unsatisfiability the bit-blaster would not find), and when the
// conjunction is Sat, the batched sibling verdicts FeasibleBatchSliced
// gives for 2-3 conditions must equal Check on the conjunction plus
// each condition. Unknown verdicts (conflict budget) are allowed and
// skipped.
func FuzzCheckSoundness(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(7), int64(2))
	f.Add(int64(12345), int64(3))
	f.Add(int64(-3), int64(4))
	f.Fuzz(func(t *testing.T, seed, nRaw int64) {
		rng := rand.New(rand.NewSource(seed))
		c := expr.NewContext()
		arr := expr.NewArray("in", 8)
		n := int(nRaw%30+30) % 30 // 0..29
		cs := make([]*expr.Expr, n+1)
		for i := range cs {
			cs[i] = expr.RandBoolExpr(c, rng, arr, 3)
		}

		s := New(Options{MaxConflicts: 20_000})
		res, model, err := s.Check(cs, nil)
		if err != nil && res != Unknown {
			t.Fatalf("error with definite verdict %v: %v", res, err)
		}
		switch res {
		case Sat:
			ev := expr.NewEvaluator(model)
			for i, con := range cs {
				if !ev.EvalBool(con) {
					t.Fatalf("Sat model violates constraint %d: %v under %v", i, con, model)
				}
			}
		case Unsat:
			s2 := New(Options{DisableIntervals: true, MaxConflicts: 100_000})
			if r2, m2, _ := s2.Check(cs, nil); r2 == Sat {
				t.Fatalf("interval prepass unsound: Unsat flipped to Sat without it (model %v)", m2)
			}
			return
		default:
			return
		}

		cond := expr.RandBoolExpr(c, rng, arr, 3)
		conds := []*expr.Expr{cond, c.NotB(cond)}
		if rng.Intn(2) == 0 {
			conds = append(conds, expr.RandBoolExpr(c, rng, arr, 3))
		}
		b := New(Options{MaxConflicts: 20_000})
		got := b.FeasibleBatchSliced(b.Slice(cs, conds), conds, nil)
		for i, cond := range conds {
			want, _, _ := New(Options{MaxConflicts: 20_000}).Check(append(cs[:len(cs):len(cs)], cond), nil)
			if got[i].Res != Unknown && want != Unknown && got[i].Res != want {
				t.Fatalf("sibling %d: batch %v, Check %v\npc: %v\ncond: %v", i, got[i].Res, want, cs, cond)
			}
		}
	})
}

package solver

import (
	"testing"
	"time"

	"pbse/internal/expr"
)

// TestPreCheckDeadline: an armed QueryDeadline bounds the PreCheck and
// PreCheckSliced propagation sweeps too — an expired sweep gives up with
// Unknown and is counted in Stats.PrecheckDeadlines instead of stalling
// the turn.
func TestPreCheckDeadline(t *testing.T) {
	c := expr.NewContext()
	arr := expr.NewArray("in", 4)
	x := c.ZExtE(c.ByteAt(arr, 0), 32)
	cond := c.UltE(x, c.Const(300, 32))
	facts := []RangeFact{{E: x, Lo: 0, Hi: 4}}

	t.Run("precheck", func(t *testing.T) {
		s := New(Options{QueryDeadline: time.Nanosecond})
		if r := s.PreCheck(cond, facts); r != Unknown {
			t.Fatalf("PreCheck under 1ns deadline = %v, want Unknown", r)
		}
		st := s.Stats()
		if st.PrecheckDeadlines == 0 {
			t.Errorf("abandoned precheck not counted: %+v", st)
		}
		if st.StaticPrunes != 0 {
			t.Errorf("expired sweep still claimed a prune: %+v", st)
		}
	})
	t.Run("precheck-pc", func(t *testing.T) {
		s := New(Options{QueryDeadline: time.Nanosecond})
		pc := []*expr.Expr{c.UltE(x, c.Const(5, 32))}
		if r := s.PreCheckSliced(pc, cond, facts); r != Unknown {
			t.Fatalf("PreCheckSliced under 1ns deadline = %v, want Unknown", r)
		}
		if st := s.Stats(); st.PrecheckDeadlines == 0 {
			t.Errorf("abandoned precheck-pc sweep not counted: %+v", st)
		}
	})
	t.Run("unbounded", func(t *testing.T) {
		s := New(Options{}) // no deadline: the sweep must decide as before
		if r := s.PreCheck(cond, facts); r != Sat {
			t.Fatalf("unbounded PreCheck = %v, want Sat", r)
		}
		if st := s.Stats(); st.PrecheckDeadlines != 0 {
			t.Errorf("unbounded sweep counted a deadline: %+v", st)
		}
	})
}

package solver

import (
	"pbse/internal/expr"
)

// blaster lowers expressions to CNF over a sat instance. Each expression
// node maps to a vector of literals, least-significant bit first. Width-1
// expressions map to a single literal.
type blaster struct {
	sat   *sat
	memo  map[*expr.Expr][]Lit
	bytes map[expr.SymByte][]Lit // symbolic input bytes -> 8 literals
	lTrue Lit                    // literal that is constrained true
}

func newBlaster(s *sat) *blaster {
	b := &blaster{
		sat:   s,
		memo:  make(map[*expr.Expr][]Lit, 256),
		bytes: make(map[expr.SymByte][]Lit),
	}
	b.assertConstTrue()
	return b
}

// start readies b for a new formula: its instance is cleared and its
// maps emptied, keeping their memory, so what follows builds exactly the
// CNF a newBlaster(newSAT()) would.
func (b *blaster) start() {
	b.sat.clear()
	clear(b.memo)
	clear(b.bytes)
	b.assertConstTrue()
}

// assertConstTrue allocates the literal every constant bit refers to.
func (b *blaster) assertConstTrue() {
	b.lTrue = mkLit(b.sat.newVar(), false)
	b.sat.addClause(b.lTrue)
}

func (b *blaster) lFalse() Lit { return b.lTrue.Neg() }

func (b *blaster) constLit(v bool) Lit {
	if v {
		return b.lTrue
	}
	return b.lFalse()
}

func (b *blaster) fresh() Lit { return mkLit(b.sat.newVar(), false) }

// assertTrue adds the constraint that the width-1 expression e holds.
func (b *blaster) assertTrue(e *expr.Expr) {
	ls := b.blast(e)
	b.sat.addClause(ls[0])
}

// byteLits returns (allocating if needed) the 8 literals of a symbolic byte.
func (b *blaster) byteLits(sb expr.SymByte) []Lit {
	if ls, ok := b.bytes[sb]; ok {
		return ls
	}
	ls := make([]Lit, 8)
	for i := range ls {
		ls[i] = b.fresh()
	}
	b.bytes[sb] = ls
	return ls
}

// blast returns the literal vector of e (LSB first), creating gates as
// needed.
func (b *blaster) blast(e *expr.Expr) []Lit {
	if ls, ok := b.memo[e]; ok {
		return ls
	}
	ls := b.blast1(e)
	if uint(len(ls)) != e.Width() {
		throwInternal("blast width mismatch for %v: got %d want %d", e, len(ls), e.Width())
	}
	b.memo[e] = ls
	return ls
}

func (b *blaster) blast1(e *expr.Expr) []Lit {
	w := int(e.Width())
	switch e.Kind() {
	case expr.Const:
		v := e.Value()
		ls := make([]Lit, w)
		for i := 0; i < w; i++ {
			ls[i] = b.constLit(v>>uint(i)&1 == 1)
		}
		return ls
	case expr.Read:
		sb := expr.SymByte{Arr: e.Array(), Idx: e.ReadIndex()}
		return b.byteLits(sb)
	case expr.Add:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		sum, _ := b.adder(a, c, b.lFalse())
		return sum
	case expr.Sub:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		return b.subtract(a, c)
	case expr.Mul:
		return b.multiply(b.blast(e.Kid(0)), b.blast(e.Kid(1)))
	case expr.UDiv:
		q, _ := b.divide(b.blast(e.Kid(0)), b.blast(e.Kid(1)))
		return q
	case expr.URem:
		_, r := b.divide(b.blast(e.Kid(0)), b.blast(e.Kid(1)))
		return r
	case expr.SDiv:
		return b.signedDivRem(e, true)
	case expr.SRem:
		return b.signedDivRem(e, false)
	case expr.And:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		ls := make([]Lit, w)
		for i := range ls {
			ls[i] = b.andGate(a[i], c[i])
		}
		return ls
	case expr.Or:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		ls := make([]Lit, w)
		for i := range ls {
			ls[i] = b.orGate(a[i], c[i])
		}
		return ls
	case expr.Xor:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		ls := make([]Lit, w)
		for i := range ls {
			ls[i] = b.xorGate(a[i], c[i])
		}
		return ls
	case expr.Not:
		a := b.blast(e.Kid(0))
		ls := make([]Lit, w)
		for i := range ls {
			ls[i] = a[i].Neg()
		}
		return ls
	case expr.Shl:
		return b.shifter(e, shiftLeft)
	case expr.LShr:
		return b.shifter(e, shiftLogicalRight)
	case expr.AShr:
		return b.shifter(e, shiftArithRight)
	case expr.Eq:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		return []Lit{b.equality(a, c)}
	case expr.Ult:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		return []Lit{b.unsignedLess(a, c, false)}
	case expr.Ule:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		return []Lit{b.unsignedLess(a, c, true)}
	case expr.Slt:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		return []Lit{b.signedLess(a, c, false)}
	case expr.Sle:
		a, c := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		return []Lit{b.signedLess(a, c, true)}
	case expr.ZExt:
		a := b.blast(e.Kid(0))
		ls := make([]Lit, w)
		copy(ls, a)
		for i := len(a); i < w; i++ {
			ls[i] = b.lFalse()
		}
		return ls
	case expr.SExt:
		a := b.blast(e.Kid(0))
		ls := make([]Lit, w)
		copy(ls, a)
		sign := a[len(a)-1]
		for i := len(a); i < w; i++ {
			ls[i] = sign
		}
		return ls
	case expr.Trunc:
		a := b.blast(e.Kid(0))
		ls := make([]Lit, w)
		copy(ls, a[:w])
		return ls
	case expr.Concat:
		hi, lo := b.blast(e.Kid(0)), b.blast(e.Kid(1))
		ls := make([]Lit, 0, w)
		ls = append(ls, lo...)
		ls = append(ls, hi...)
		return ls
	case expr.ITE:
		cond := b.blast(e.Kid(0))[0]
		a, c := b.blast(e.Kid(1)), b.blast(e.Kid(2))
		ls := make([]Lit, w)
		for i := range ls {
			ls[i] = b.mux(cond, a[i], c[i])
		}
		return ls
	default:
		throwInternal("blast: unknown kind %s", e.Kind())
		return nil // unreachable
	}
}

// --- gates ---

func (b *blaster) andGate(x, y Lit) Lit {
	if x == b.lFalse() || y == b.lFalse() {
		return b.lFalse()
	}
	if x == b.lTrue {
		return y
	}
	if y == b.lTrue {
		return x
	}
	if x == y {
		return x
	}
	if x == y.Neg() {
		return b.lFalse()
	}
	o := b.fresh()
	b.sat.addClause(o.Neg(), x)
	b.sat.addClause(o.Neg(), y)
	b.sat.addClause(o, x.Neg(), y.Neg())
	return o
}

func (b *blaster) orGate(x, y Lit) Lit {
	return b.andGate(x.Neg(), y.Neg()).Neg()
}

func (b *blaster) xorGate(x, y Lit) Lit {
	if x == b.lFalse() {
		return y
	}
	if y == b.lFalse() {
		return x
	}
	if x == b.lTrue {
		return y.Neg()
	}
	if y == b.lTrue {
		return x.Neg()
	}
	if x == y {
		return b.lFalse()
	}
	if x == y.Neg() {
		return b.lTrue
	}
	o := b.fresh()
	b.sat.addClause(o.Neg(), x, y)
	b.sat.addClause(o.Neg(), x.Neg(), y.Neg())
	b.sat.addClause(o, x.Neg(), y)
	b.sat.addClause(o, x, y.Neg())
	return o
}

// mux returns s ? x : y.
func (b *blaster) mux(s, x, y Lit) Lit {
	if s == b.lTrue {
		return x
	}
	if s == b.lFalse() {
		return y
	}
	if x == y {
		return x
	}
	o := b.fresh()
	b.sat.addClause(s.Neg(), x.Neg(), o)
	b.sat.addClause(s.Neg(), x, o.Neg())
	b.sat.addClause(s, y.Neg(), o)
	b.sat.addClause(s, y, o.Neg())
	return o
}

// fullAdder returns (sum, carry) of x + y + cin.
func (b *blaster) fullAdder(x, y, cin Lit) (Lit, Lit) {
	sum := b.xorGate(b.xorGate(x, y), cin)
	carry := b.orGate(b.andGate(x, y), b.andGate(cin, b.xorGate(x, y)))
	return sum, carry
}

// adder returns the ripple-carry sum of equal-width vectors and the final
// carry-out.
func (b *blaster) adder(x, y []Lit, cin Lit) ([]Lit, Lit) {
	out := make([]Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

// subtract returns x - y (two's complement: x + ^y + 1).
func (b *blaster) subtract(x, y []Lit) []Lit {
	ny := make([]Lit, len(y))
	for i := range y {
		ny[i] = y[i].Neg()
	}
	out, _ := b.adder(x, ny, b.lTrue)
	return out
}

// negate returns -x.
func (b *blaster) negate(x []Lit) []Lit {
	zero := make([]Lit, len(x))
	for i := range zero {
		zero[i] = b.lFalse()
	}
	return b.subtract(zero, x)
}

// multiply returns the low len(x) bits of x*y (shift-add).
func (b *blaster) multiply(x, y []Lit) []Lit {
	w := len(x)
	acc := make([]Lit, w)
	for i := range acc {
		acc[i] = b.lFalse()
	}
	for i := 0; i < w; i++ {
		// partial = y[i] ? (x << i) : 0, added into acc
		part := make([]Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				part[j] = b.lFalse()
			} else {
				part[j] = b.andGate(x[j-i], y[i])
			}
		}
		acc, _ = b.adder(acc, part, b.lFalse())
	}
	return acc
}

// divide returns the unsigned (quotient, remainder) of x/y using a
// restoring-division circuit. Division by zero follows the SMT-LIB
// convention: quotient all-ones, remainder x.
func (b *blaster) divide(x, y []Lit) ([]Lit, []Lit) {
	w := len(x)
	// Work with a (w+1)-bit remainder so rem<<1|bit never overflows the
	// comparison with the (w+1)-bit-extended divisor.
	rem := make([]Lit, w+1)
	for i := range rem {
		rem[i] = b.lFalse()
	}
	d := make([]Lit, w+1)
	copy(d, y)
	d[w] = b.lFalse()

	q := make([]Lit, w)
	for i := w - 1; i >= 0; i-- {
		// rem = rem << 1 | x[i]
		nr := make([]Lit, w+1)
		nr[0] = x[i]
		copy(nr[1:], rem[:w])
		rem = nr
		// q[i] = rem >= d
		ge := b.unsignedLess(rem, d, false).Neg()
		q[i] = ge
		// rem = ge ? rem - d : rem
		sub := b.subtract(rem, d)
		for j := range rem {
			rem[j] = b.mux(ge, sub[j], rem[j])
		}
	}
	// division-by-zero handling
	dz := b.isZero(y)
	qOut := make([]Lit, w)
	rOut := make([]Lit, w)
	for i := 0; i < w; i++ {
		qOut[i] = b.mux(dz, b.lTrue, q[i])
		rOut[i] = b.mux(dz, x[i], rem[i])
	}
	return qOut, rOut
}

// signedDivRem lowers SDiv/SRem by conditional negation around divide.
func (b *blaster) signedDivRem(e *expr.Expr, wantQuot bool) []Lit {
	x := b.blast(e.Kid(0))
	y := b.blast(e.Kid(1))
	w := len(x)
	sx, sy := x[w-1], y[w-1]
	ax := b.condNegate(sx, x)
	ay := b.condNegate(sy, y)
	q, r := b.divide(ax, ay)
	if wantQuot {
		qneg := b.xorGate(sx, sy)
		out := b.condNegate(qneg, q)
		// keep the div-by-zero convention of the expr layer: q = all-ones
		dz := b.isZero(y)
		for i := range out {
			out[i] = b.mux(dz, b.lTrue, out[i])
		}
		return out
	}
	out := b.condNegate(sx, r) // remainder takes the dividend's sign
	dz := b.isZero(y)
	for i := range out {
		out[i] = b.mux(dz, x[i], out[i])
	}
	return out
}

func (b *blaster) condNegate(c Lit, x []Lit) []Lit {
	n := b.negate(x)
	out := make([]Lit, len(x))
	for i := range x {
		out[i] = b.mux(c, n[i], x[i])
	}
	return out
}

func (b *blaster) isZero(x []Lit) Lit {
	nz := b.lFalse()
	for _, l := range x {
		nz = b.orGate(nz, l)
	}
	return nz.Neg()
}

type shiftKind int

const (
	shiftLeft shiftKind = iota + 1
	shiftLogicalRight
	shiftArithRight
)

// shifter builds a barrel shifter for e = kid0 shifted by kid1.
func (b *blaster) shifter(e *expr.Expr, kind shiftKind) []Lit {
	x := b.blast(e.Kid(0))
	amt := b.blast(e.Kid(1))
	w := len(x)

	fill := b.lFalse()
	if kind == shiftArithRight {
		fill = x[w-1]
	}

	// stages for amount bits that can select within the width
	cur := make([]Lit, w)
	copy(cur, x)
	for s := 0; s < len(amt) && (1<<s) < w*2; s++ {
		sh := 1 << s
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			var shifted Lit
			switch kind {
			case shiftLeft:
				if i-sh >= 0 {
					shifted = cur[i-sh]
				} else {
					shifted = b.lFalse()
				}
			default:
				if i+sh < w {
					shifted = cur[i+sh]
				} else {
					shifted = fill
				}
			}
			next[i] = b.mux(amt[s], shifted, cur[i])
		}
		cur = next
	}
	// any set amount bit >= the highest stage forces overshift semantics
	over := b.lFalse()
	for s := 0; s < len(amt); s++ {
		if 1<<s >= w*2 {
			over = b.orGate(over, amt[s])
		}
	}
	// also: amounts in [w, 2^stages) are handled by the stages themselves
	// (they shift everything out), so only bits beyond the stage range
	// matter here.
	out := make([]Lit, w)
	for i := range out {
		var overVal Lit
		if kind == shiftArithRight {
			overVal = fill
		} else {
			overVal = b.lFalse()
		}
		out[i] = b.mux(over, overVal, cur[i])
	}
	return out
}

func (b *blaster) equality(x, y []Lit) Lit {
	neq := b.lFalse()
	for i := range x {
		neq = b.orGate(neq, b.xorGate(x[i], y[i]))
	}
	return neq.Neg()
}

// unsignedLess returns x < y (orEqual selects <=). Vectors must be the same
// length.
func (b *blaster) unsignedLess(x, y []Lit, orEqual bool) Lit {
	lt := b.constLit(orEqual)
	for i := 0; i < len(x); i++ { // LSB to MSB
		// lt_i = (~x_i & y_i) | (x_i==y_i & lt_{i-1})
		xiLTyi := b.andGate(x[i].Neg(), y[i])
		eq := b.xorGate(x[i], y[i]).Neg()
		lt = b.orGate(xiLTyi, b.andGate(eq, lt))
	}
	return lt
}

// signedLess returns the signed comparison: flip the sign bits and compare
// unsigned.
func (b *blaster) signedLess(x, y []Lit, orEqual bool) Lit {
	fx := make([]Lit, len(x))
	fy := make([]Lit, len(y))
	copy(fx, x)
	copy(fy, y)
	fx[len(fx)-1] = x[len(x)-1].Neg()
	fy[len(fy)-1] = y[len(y)-1].Neg()
	return b.unsignedLess(fx, fy, orEqual)
}

// model extracts the concrete value of every symbolic byte touched during
// blasting from the SAT assignment.
func (b *blaster) model() map[expr.SymByte]byte {
	out := make(map[expr.SymByte]byte, len(b.bytes))
	for sb, ls := range b.bytes {
		var v byte
		for i, l := range ls {
			bit := b.sat.modelValue(l.Var())
			if l.Sign() {
				bit = !bit
			}
			if bit {
				v |= 1 << uint(i)
			}
		}
		out[sb] = v
	}
	return out
}

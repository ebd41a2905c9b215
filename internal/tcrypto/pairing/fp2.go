package pairing

import "math/big"

// GT is an element of the target group, represented in F_{p^2} as
// A + B·i with i^2 = −1. Elements are immutable: all operations allocate
// fresh results.
type GT struct {
	A, B *big.Int
}

// gtOne returns the multiplicative identity of F_{p^2}.
func gtOne() *GT {
	return &GT{A: big.NewInt(1), B: big.NewInt(0)}
}

// IsOne reports whether g is the multiplicative identity.
func (g *GT) IsOne() bool {
	return g.A.Cmp(big.NewInt(1)) == 0 && g.B.Sign() == 0
}

// Equal reports whether g and o are the same F_{p^2} element.
func (g *GT) Equal(o *GT) bool {
	return g.A.Cmp(o.A) == 0 && g.B.Cmp(o.B) == 0
}

// Bytes returns a fixed-width big-endian encoding of g, suitable for
// hashing and wire transport.
func (p *Params) gtBytes(g *GT) []byte {
	w := (p.P.BitLen() + 7) / 8
	out := make([]byte, 2*w)
	g.A.FillBytes(out[:w])
	g.B.FillBytes(out[w:])
	return out
}

// gtAcc is a mutable F_{p²} accumulator a + b·i on the Montgomery field.
// The pairing hot loops (PairPrepared, PairProduct, and their shared final
// exponentiation) run thousands of field operations per call; routing
// them through one value-typed accumulator keeps them allocation-free. A
// gtAcc is not safe for concurrent use; each pairing call creates its own.
type gtAcc struct {
	f    *field
	a, b fe
}

func newGTAcc(p *Params) *gtAcc {
	return &gtAcc{f: &p.fp, a: p.fp.one}
}

// loadGT returns an accumulator holding g.
func (p *Params) loadGT(g *GT) *gtAcc {
	acc := &gtAcc{f: &p.fp}
	p.fp.fromBig(&acc.a, g.A)
	p.fp.fromBig(&acc.b, g.B)
	return acc
}

// gt converts the accumulator out of Montgomery form.
func (g *gtAcc) gt() *GT {
	return &GT{A: g.f.toBig(&g.a), B: g.f.toBig(&g.b)}
}

// square sets g ← g²: (a+bi)² = (a−b)(a+b) + 2ab·i.
func (g *gtAcc) square() {
	f := g.f
	var sum, diff, ab fe
	f.add(&sum, &g.a, &g.b)
	f.sub(&diff, &g.a, &g.b)
	f.mul(&ab, &g.a, &g.b)
	f.mul(&g.a, &sum, &diff)
	f.add(&g.b, &ab, &ab)
}

// mul sets g ← g·(la + lb·i) with Karatsuba's three multiplications:
// ad + bc = (a+b)(c+d) − ac − bd.
func (g *gtAcc) mul(la, lb *fe) {
	f := g.f
	var ac, bd, xs, ys fe
	f.mul(&ac, &g.a, la)
	f.mul(&bd, &g.b, lb)
	f.add(&xs, &g.a, &g.b)
	f.add(&ys, la, lb)
	f.mul(&xs, &xs, &ys)
	f.sub(&xs, &xs, &ac)
	f.sub(&g.b, &xs, &bd)
	f.sub(&g.a, &ac, &bd)
}

// mulReal sets g ← g·la for a real element (vertical lines have zero
// imaginary part, so the full product collapses to two mults).
func (g *gtAcc) mulReal(la *fe) {
	g.f.mul(&g.a, &g.a, la)
	g.f.mul(&g.b, &g.b, la)
}

// mulLine multiplies g by a cached Miller line evaluated at φ(b), where
// (xb, yb) are b's Montgomery coordinates.
func (g *gtAcc) mulLine(ln *line, xb, yb *fe) {
	var l fe
	if ln.vertical {
		g.f.sub(&l, &ln.c, xb)
		g.mulReal(&l)
		return
	}
	g.f.mul(&l, &ln.lambda, xb)
	g.f.add(&l, &l, &ln.c)
	g.mul(&l, yb)
}

// exp sets g ← g^e for a non-negative exponent e.
func (g *gtAcc) exp(e *big.Int) {
	base := *g
	g.a, g.b = g.f.one, fe{}
	for i := e.BitLen() - 1; i >= 0; i-- {
		g.square()
		if e.Bit(i) == 1 {
			g.mul(&base.a, &base.b)
		}
	}
}

// finalExp applies z ↦ z^{(p²−1)/r} to the accumulator and returns the
// result, consuming the accumulator.
func (g *gtAcc) finalExp(h *big.Int) *GT {
	f := g.f
	// z^(p−1) = conj(z)/z: the Frobenius in F_{p²} is conjugation, and
	// 1/z = conj(z)/N(z) with N(z) = a² + b², so one base-field
	// inversion and one F_{p²} multiplication.
	var norm, t, ia, ib fe
	f.mul(&norm, &g.a, &g.a)
	f.mul(&t, &g.b, &g.b)
	f.add(&norm, &norm, &t)
	f.inv(&norm, &norm)
	f.mul(&ia, &g.a, &norm)
	f.mul(&ib, &g.b, &norm)
	f.neg(&ib, &ib)
	f.neg(&g.b, &g.b)
	g.mul(&ia, &ib)
	// Then raise to (p+1)/r = h.
	g.exp(h)
	return g.gt()
}

// GTExp returns g^e reduced modulo the group order; it is the scalar action
// on the target group used by tests asserting bilinearity.
func (p *Params) GTExp(g *GT, e *big.Int) *GT {
	acc := p.loadGT(g)
	acc.exp(new(big.Int).Mod(e, p.R))
	return acc.gt()
}

// GTMul returns the product of two target-group elements.
func (p *Params) GTMul(x, y *GT) *GT {
	acc := p.loadGT(x)
	var ya, yb fe
	p.fp.fromBig(&ya, y.A)
	p.fp.fromBig(&yb, y.B)
	acc.mul(&ya, &yb)
	return acc.gt()
}

// GTBytes returns a canonical encoding of a target-group element.
func (p *Params) GTBytes(g *GT) []byte { return p.gtBytes(g) }

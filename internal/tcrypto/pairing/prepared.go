package pairing

import (
	"math/big"

	"cicero/internal/metrics"
)

// line caches one Miller-loop line function through points of E(F_p),
// ready to be evaluated at a distorted second argument φ(b) = (−x_b, i·y_b).
// A chord/tangent with slope λ through (x1, y1) evaluates to
// [λ·x_b + (λ·x1 − y1)] + y_b·i, and a vertical line x = x1 to
// (−x1 − x_b) + 0·i; both are stored as Montgomery constants so that
// evaluating a line costs at most one field multiplication.
type line struct {
	lambda   fe // slope (chords and tangents only)
	c        fe // λ·x1 − y1, or −x1 for a vertical line
	vertical bool
}

// chordLine returns the line with slope lambda through (x1, y1).
func (p *Params) chordLine(x1, y1, lambda *big.Int) line {
	f := &p.fp
	var ln line
	var mx, my fe
	f.fromBig(&ln.lambda, lambda)
	f.fromBig(&mx, x1)
	f.fromBig(&my, y1)
	f.mul(&ln.c, &ln.lambda, &mx)
	f.sub(&ln.c, &ln.c, &my)
	return ln
}

// verticalLine returns the line x = x1.
func (p *Params) verticalLine(x1 *big.Int) line {
	ln := line{vertical: true}
	p.fp.fromBig(&ln.c, x1)
	p.fp.neg(&ln.c, &ln.c)
	return ln
}

// millerStep is one iteration of the Miller loop over the bits of r: an
// implicit squaring of the accumulator, then the doubling line (nil when
// the running point was already at infinity), then the addition line for
// set bits (nil otherwise, or when the step only re-seeds the running
// point).
type millerStep struct {
	dbl *line
	add *line
}

// PreparedPoint caches the Miller-loop line coefficients of f_{r,a} for a
// fixed first pairing argument a. Preparing pays the chord/tangent slope
// inversions once; every subsequent PairPrepared or PairProduct against
// the prepared argument replays the cached lines with a handful of field
// multiplications per step instead of a modular inversion and a point
// update. The generator G and long-lived public keys never change within
// a deployment, which makes their prepared forms the verification hot
// path. Prepared points are immutable and safe for concurrent use.
type PreparedPoint struct {
	a     *Point
	inf   bool
	steps []millerStep
}

// Point returns the prepared argument.
func (pp *PreparedPoint) Point() *Point { return pp.a.Clone() }

// Prepare computes the Miller-loop line coefficients for a fixed first
// pairing argument. The walk mirrors miller() step for step, recording
// each line instead of evaluating it; it runs in affine Montgomery
// coordinates, so besides the one inversion per line (the slope) it
// allocates only the recorded lines.
func (p *Params) Prepare(a *Point) *PreparedPoint {
	if a.IsInfinity() {
		return &PreparedPoint{a: Infinity(), inf: true}
	}
	metrics.Crypto.PointPrepares.Add(1)
	prep := &PreparedPoint{a: a.Clone(), steps: make([]millerStep, 0, p.R.BitLen()-1)}
	f := &p.fp
	base := p.toMont(a)
	v, vInf := base, false

	// through records the line with slope num/den through v and moves v
	// to the curve's third point on it, reflected: x3 = λ² − x_v − x2.
	through := func(num, den, x2 *fe) *line {
		ln := &line{}
		f.inv(&ln.lambda, den)
		f.mul(&ln.lambda, &ln.lambda, num)
		f.mul(&ln.c, &ln.lambda, &v.x)
		f.sub(&ln.c, &ln.c, &v.y)
		var x3, t fe
		f.mul(&x3, &ln.lambda, &ln.lambda)
		f.sub(&x3, &x3, &v.x)
		f.sub(&x3, &x3, x2)
		f.sub(&t, &v.x, &x3)
		f.mul(&t, &t, &ln.lambda)
		f.sub(&v.y, &t, &v.y)
		v.x = x3
		return ln
	}
	// tangent records the tangent at v, slope (3x² + 1)/(2y), and doubles v.
	tangent := func() *line {
		var num, den fe
		f.mul(&num, &v.x, &v.x)
		f.add(&den, &num, &num)
		f.add(&num, &den, &num)
		f.add(&num, &num, &f.one)
		f.add(&den, &v.y, &v.y)
		x := v.x
		return through(&num, &den, &x)
	}
	// vertical records the vertical line at v, which sends v to ∞.
	vertical := func() *line {
		ln := &line{vertical: true}
		f.neg(&ln.c, &v.x)
		vInf = true
		return ln
	}

	for i := p.R.BitLen() - 2; i >= 0; i-- {
		var step millerStep
		// Doubling step.
		if !vInf {
			if v.y.isZero() {
				step.dbl = vertical()
			} else {
				step.dbl = tangent()
			}
		}
		// Addition step.
		if p.R.Bit(i) == 1 {
			switch {
			case vInf:
				v, vInf = base, false
			case v.x == base.x:
				var sum fe
				f.add(&sum, &v.y, &base.y)
				if sum.isZero() {
					step.add = vertical()
				} else {
					step.add = tangent()
				}
			default:
				var num, den fe
				f.sub(&num, &base.y, &v.y)
				f.sub(&den, &base.x, &v.x)
				step.add = through(&num, &den, &base.x)
			}
		}
		prep.steps = append(prep.steps, step)
	}
	return prep
}

// PairPrepared computes e(a, b) for a prepared first argument, replaying
// the cached Miller lines against φ(b). It agrees with Pair(a, b) on all
// inputs while skipping every per-step modular inversion.
func (p *Params) PairPrepared(prep *PreparedPoint, b *Point) *GT {
	if prep.inf || b.IsInfinity() {
		return gtOne()
	}
	metrics.Crypto.PreparedPairings.Add(1)
	mb := p.toMont(b)
	acc := newGTAcc(p)
	for i := range prep.steps {
		acc.square()
		st := &prep.steps[i]
		if st.dbl != nil {
			acc.mulLine(st.dbl, &mb.x, &mb.y)
		}
		if st.add != nil {
			acc.mulLine(st.add, &mb.x, &mb.y)
		}
	}
	return acc.finalExp(p.H)
}

// ProductTerm is one factor e(first, B) of a pairing product. The first
// argument is the cached Prep when non-nil, otherwise the live point A
// (prepared on the fly). B is the evaluation point.
type ProductTerm struct {
	Prep *PreparedPoint
	A    *Point
	B    *Point
}

// PairProduct computes ∏ᵢ e(aᵢ, bᵢ) with a single shared Miller squaring
// chain and one final exponentiation. Because every Miller loop walks the
// same scalar r, the accumulators satisfy (f₁·f₂)² = f₁²·f₂²: one
// squaring per bit covers all factors, and the final exponentiation —
// roughly a third of a full pairing — is paid once instead of per factor.
//
// The signature-verification equation e(σ, G) == e(H(m), X) becomes the
// single product check e(G, σ)·e(X, −H(m)) == 1 (using symmetry of the
// Type-A pairing), with G and X prepared.
func (p *Params) PairProduct(terms ...ProductTerm) *GT {
	type active struct {
		steps []millerStep
		b     affine
	}
	acts := make([]active, 0, len(terms))
	for _, t := range terms {
		prep := t.Prep
		if prep == nil {
			prep = p.Prepare(t.A)
		}
		if prep.inf || t.B.IsInfinity() {
			continue // factor is 1
		}
		acts = append(acts, active{steps: prep.steps, b: p.toMont(t.B)})
	}
	if len(acts) == 0 {
		return gtOne()
	}
	metrics.Crypto.PairingProducts.Add(1)
	acc := newGTAcc(p)
	// All prepared points over the same parameters record exactly
	// R.BitLen()-1 steps, so the walks align bit for bit.
	for i := range acts[0].steps {
		acc.square()
		for k := range acts {
			a := &acts[k]
			st := &a.steps[i]
			if st.dbl != nil {
				acc.mulLine(st.dbl, &a.b.x, &a.b.y)
			}
			if st.add != nil {
				acc.mulLine(st.add, &a.b.x, &a.b.y)
			}
		}
	}
	return acc.finalExp(p.H)
}

package pairing

import "math/big"

// Jacobian-coordinate scalar multiplication on the Montgomery field.
// Affine double-and-add pays one modular inversion per scalar bit (the
// chord/tangent slope); in Jacobian projective coordinates
// (X, Y, Z) ~ (X/Z², Y/Z³) the whole walk is inversion-free and a single
// inversion converts the result back to affine. This is the hot path
// under Combine's Lagrange exponentiation, share signing, batched share
// verification, and hashing to the curve. Points are converted into
// Montgomery form once on entry and out of it once on exit, so the walk
// itself allocates nothing.
//
// Formulas are the standard dbl-2007-bl / madd-2007-bl for
// y² = x³ + a·x with a = 1 (this package's supersingular curve).

// affine is a finite curve point with Montgomery coordinates.
type affine struct {
	x, y fe
}

// jacPoint is a point in Jacobian coordinates; z == 0 is infinity.
type jacPoint struct {
	x, y, z fe
}

// toMont converts a finite API point into Montgomery coordinates.
func (p *Params) toMont(pt *Point) affine {
	var a affine
	p.fp.fromBig(&a.x, pt.X)
	p.fp.fromBig(&a.y, pt.Y)
	return a
}

// negAffine returns −a.
func (p *Params) negAffine(a *affine) affine {
	n := affine{x: a.x}
	p.fp.neg(&n.y, &a.y)
	return n
}

// toAffine projects back, paying the single inversion.
func (p *Params) toAffine(j *jacPoint) *Point {
	if j.z.isZero() {
		return Infinity()
	}
	f := &p.fp
	var zInv, zInv2, x, y fe
	f.inv(&zInv, &j.z)
	f.mul(&zInv2, &zInv, &zInv)
	f.mul(&x, &j.x, &zInv2)
	f.mul(&zInv, &zInv, &zInv2) // Z⁻³
	f.mul(&y, &j.y, &zInv)
	return &Point{X: f.toBig(&x), Y: f.toBig(&y)}
}

// jacDouble sets j ← 2·j.
func (p *Params) jacDouble(j *jacPoint) {
	if j.z.isZero() || j.y.isZero() {
		j.z = fe{}
		return
	}
	f := &p.fp
	var xx, yy, yyyy, zz, s, m, t fe
	f.mul(&xx, &j.x, &j.x)
	f.mul(&yy, &j.y, &j.y)
	f.mul(&yyyy, &yy, &yy)
	f.mul(&zz, &j.z, &j.z)
	// S = 2·((X+YY)² − XX − YYYY)
	f.add(&s, &j.x, &yy)
	f.mul(&s, &s, &s)
	f.sub(&s, &s, &xx)
	f.sub(&s, &s, &yyyy)
	f.add(&s, &s, &s)
	// M = 3·XX + a·ZZ² with a = 1.
	f.add(&m, &xx, &xx)
	f.add(&m, &m, &xx)
	f.mul(&t, &zz, &zz)
	f.add(&m, &m, &t)
	// Z3 = (Y+Z)² − YY − ZZ = 2·Y·Z
	f.add(&j.z, &j.y, &j.z)
	f.mul(&j.z, &j.z, &j.z)
	f.sub(&j.z, &j.z, &yy)
	f.sub(&j.z, &j.z, &zz)
	// X3 = M² − 2·S
	f.mul(&j.x, &m, &m)
	f.sub(&j.x, &j.x, &s)
	f.sub(&j.x, &j.x, &s)
	// Y3 = M·(S − X3) − 8·YYYY
	f.sub(&t, &s, &j.x)
	f.mul(&j.y, &m, &t)
	f.add(&yyyy, &yyyy, &yyyy)
	f.add(&yyyy, &yyyy, &yyyy)
	f.add(&yyyy, &yyyy, &yyyy)
	f.sub(&j.y, &j.y, &yyyy)
}

// jacAddAffine sets j ← j + a (mixed addition).
func (p *Params) jacAddAffine(j *jacPoint, a *affine) {
	f := &p.fp
	if j.z.isZero() {
		*j = jacPoint{x: a.x, y: a.y, z: f.one}
		return
	}
	var z1z1, u2, s2, h, r, hh, i, jj, v, yj fe
	f.mul(&z1z1, &j.z, &j.z)
	f.mul(&u2, &a.x, &z1z1)
	f.mul(&s2, &a.y, &j.z)
	f.mul(&s2, &s2, &z1z1)
	f.sub(&h, &u2, &j.x)
	f.sub(&r, &s2, &j.y)
	if h.isZero() {
		if r.isZero() {
			p.jacDouble(j)
		} else {
			j.z = fe{}
		}
		return
	}
	f.add(&r, &r, &r)
	f.mul(&hh, &h, &h)
	f.add(&i, &hh, &hh)
	f.add(&i, &i, &i)
	f.mul(&jj, &h, &i)
	f.mul(&v, &j.x, &i)
	f.mul(&yj, &j.y, &jj)
	// Z3 = (Z1+H)² − Z1Z1 − HH = 2·Z1·H
	f.add(&j.z, &j.z, &h)
	f.mul(&j.z, &j.z, &j.z)
	f.sub(&j.z, &j.z, &z1z1)
	f.sub(&j.z, &j.z, &hh)
	// X3 = r² − J − 2·V
	f.mul(&j.x, &r, &r)
	f.sub(&j.x, &j.x, &jj)
	f.sub(&j.x, &j.x, &v)
	f.sub(&j.x, &j.x, &v)
	// Y3 = r·(V − X3) − 2·Y1·J
	f.sub(&v, &v, &j.x)
	f.mul(&j.y, &r, &v)
	f.add(&yj, &yj, &yj)
	f.sub(&j.y, &j.y, &yj)
}

// naf returns the non-adjacent form of a non-negative k, least
// significant digit first. NAF cuts the expected non-zero digit density
// from 1/2 to 1/3, and the negative digits cost nothing extra because
// negating an affine point is free.
func naf(k *big.Int) []int8 {
	digits := make([]int8, 0, k.BitLen()+1)
	n := new(big.Int).Set(k)
	one := big.NewInt(1)
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			if n.Bits()[0]&3 == 1 {
				digits = append(digits, 1)
				n.Sub(n, one)
			} else {
				digits = append(digits, -1)
				n.Add(n, one)
			}
		} else {
			digits = append(digits, 0)
		}
		n.Rsh(n, 1)
	}
	return digits
}

// balancedNAF recodes a scalar already reduced to [0, r) into NAF digits
// of its balanced representative: whichever of kr and kr−r is shorter,
// the latter signalled by flip=true (the caller multiplies the negated
// point instead). Scalars near r — notably Lagrange coefficients of
// consecutive-index quorums, which are small negative integers mod r —
// collapse from full field width to a handful of bits.
func (p *Params) balancedNAF(kr *big.Int) (digits []int8, flip bool) {
	neg := new(big.Int).Sub(p.R, kr)
	if neg.BitLen() < kr.BitLen() {
		return naf(neg), true
	}
	return naf(kr), false
}

// mulDigits walks a signed-digit expansion over a, most significant
// digit first, and returns the affine result.
func (p *Params) mulDigits(a *affine, digits []int8) *Point {
	neg := p.negAffine(a)
	var acc jacPoint
	for i := len(digits) - 1; i >= 0; i-- {
		p.jacDouble(&acc)
		switch digits[i] {
		case 1:
			p.jacAddAffine(&acc, a)
		case -1:
			p.jacAddAffine(&acc, &neg)
		}
	}
	return p.toAffine(&acc)
}

// MultiScalarMul computes Σᵢ kᵢ·ptᵢ with a single shared doubling chain
// (Straus interleaving): one doubling per scalar bit regardless of the
// number of terms, plus sparse NAF additions per term. This is the shape
// of threshold combining (Σ λᵢ·σᵢ) and of random-linear-combination
// batch verification (Σ cᵢ·σᵢ, Σ cᵢ·vkᵢ). Scalars are reduced modulo r.
func (p *Params) MultiScalarMul(points []*Point, scalars []*big.Int) *Point {
	if len(points) != len(scalars) {
		panic("pairing: MultiScalarMul length mismatch")
	}
	type term struct {
		pt, neg affine
		digits  []int8
	}
	terms := make([]term, 0, len(points))
	maxLen := 0
	for i, pt := range points {
		kr := new(big.Int).Mod(scalars[i], p.R)
		if kr.Sign() == 0 || pt.IsInfinity() {
			continue
		}
		digits, flip := p.balancedNAF(kr)
		t := term{pt: p.toMont(pt), digits: digits}
		t.neg = p.negAffine(&t.pt)
		if flip {
			t.pt, t.neg = t.neg, t.pt
		}
		if len(t.digits) > maxLen {
			maxLen = len(t.digits)
		}
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return Infinity()
	}
	var acc jacPoint
	for i := maxLen - 1; i >= 0; i-- {
		p.jacDouble(&acc)
		for k := range terms {
			t := &terms[k]
			if i >= len(t.digits) {
				continue
			}
			switch t.digits[i] {
			case 1:
				p.jacAddAffine(&acc, &t.pt)
			case -1:
				p.jacAddAffine(&acc, &t.neg)
			}
		}
	}
	return p.toAffine(&acc)
}

package pairing

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Point is a point in G1, the order-r subgroup of E(F_p): y² = x³ + x.
// The zero value (nil coordinates) is the point at infinity. Points are
// immutable: all operations allocate fresh results.
type Point struct {
	X, Y *big.Int
}

// Infinity returns the identity element of G1.
func Infinity() *Point { return &Point{} }

// IsInfinity reports whether pt is the identity element.
func (pt *Point) IsInfinity() bool { return pt == nil || pt.X == nil }

// Equal reports whether two points are the same group element.
func (pt *Point) Equal(o *Point) bool {
	if pt.IsInfinity() || o.IsInfinity() {
		return pt.IsInfinity() && o.IsInfinity()
	}
	return pt.X.Cmp(o.X) == 0 && pt.Y.Cmp(o.Y) == 0
}

// Clone returns a deep copy of pt.
func (pt *Point) Clone() *Point {
	if pt.IsInfinity() {
		return Infinity()
	}
	return &Point{X: new(big.Int).Set(pt.X), Y: new(big.Int).Set(pt.Y)}
}

// String renders the point for debugging.
func (pt *Point) String() string {
	if pt.IsInfinity() {
		return "G1(∞)"
	}
	return fmt.Sprintf("G1(%s, %s)", pt.X.Text(16), pt.Y.Text(16))
}

// coordWidth is the byte width of one field element.
func (p *Params) coordWidth() int { return (p.P.BitLen() + 7) / 8 }

// PointSize returns the fixed byte length of a non-infinity point encoding
// (benchmarks use it to meter signature bytes without serializing).
func (p *Params) PointSize() int { return 1 + 2*p.coordWidth() }

// PointBytes returns a canonical encoding of pt: a one-byte tag (0 for
// infinity, 4 for affine) followed by fixed-width X and Y coordinates.
func (p *Params) PointBytes(pt *Point) []byte {
	w := p.coordWidth()
	out := make([]byte, 1+2*w)
	if pt.IsInfinity() {
		return out[:1]
	}
	out[0] = 4
	pt.X.FillBytes(out[1 : 1+w])
	pt.Y.FillBytes(out[1+w:])
	return out
}

// errBadPoint reports a malformed or off-curve encoding.
var errBadPoint = errors.New("pairing: invalid point encoding")

// ParsePoint decodes a point produced by PointBytes, rejecting encodings
// that are malformed or not on the curve.
func (p *Params) ParsePoint(data []byte) (*Point, error) {
	if len(data) == 1 && data[0] == 0 {
		return Infinity(), nil
	}
	w := p.coordWidth()
	if len(data) != 1+2*w || data[0] != 4 {
		return nil, errBadPoint
	}
	x := new(big.Int).SetBytes(data[1 : 1+w])
	y := new(big.Int).SetBytes(data[1+w:])
	pt := &Point{X: x, Y: y}
	if x.Cmp(p.P) >= 0 || y.Cmp(p.P) >= 0 || !p.IsOnCurve(pt) {
		return nil, errBadPoint
	}
	return pt, nil
}

// IsOnCurve reports whether pt satisfies y² = x³ + x over F_p. The point at
// infinity is on the curve.
func (p *Params) IsOnCurve(pt *Point) bool {
	if pt.IsInfinity() {
		return true
	}
	a := p.toMont(pt)
	var lhs, rhs fe
	p.fp.mul(&lhs, &a.y, &a.y)
	p.curveRHS(&rhs, &a.x)
	return lhs == rhs
}

// curveRHS sets z = x³ + x.
func (p *Params) curveRHS(z, x *fe) {
	var t fe
	p.fp.mul(&t, x, x)
	p.fp.mul(&t, &t, x)
	p.fp.add(z, &t, x)
}

// Neg returns −pt.
func (p *Params) Neg(pt *Point) *Point {
	if pt.IsInfinity() {
		return Infinity()
	}
	y := new(big.Int).Neg(pt.Y)
	y.Mod(y, p.P)
	return &Point{X: new(big.Int).Set(pt.X), Y: y}
}

// Add returns a + b in the curve group.
func (p *Params) Add(a, b *Point) *Point {
	if a.IsInfinity() {
		return b.Clone()
	}
	if b.IsInfinity() {
		return a.Clone()
	}
	if a.X.Cmp(b.X) == 0 {
		sum := new(big.Int).Add(a.Y, b.Y)
		sum.Mod(sum, p.P)
		if sum.Sign() == 0 {
			return Infinity()
		}
		return p.Double(a)
	}
	return p.chord(a, b, p.chordSlope(a, b))
}

// Double returns 2·a.
func (p *Params) Double(a *Point) *Point {
	if a.IsInfinity() || a.Y.Sign() == 0 {
		return Infinity()
	}
	return p.chord(a, a, p.tangentSlope(a))
}

// chordSlope returns the slope (y_b − y_a)/(x_b − x_a) of the chord
// through a and b, which must have distinct x.
func (p *Params) chordSlope(a, b *Point) *big.Int {
	num := new(big.Int).Sub(b.Y, a.Y)
	den := new(big.Int).Sub(b.X, a.X)
	den.Mod(den, p.P)
	den.ModInverse(den, p.P)
	lambda := num.Mul(num, den)
	return lambda.Mod(lambda, p.P)
}

// tangentSlope returns the slope (3x² + 1)/(2y) of the tangent at a, for
// the curve y² = x³ + x; a.Y must be non-zero.
func (p *Params) tangentSlope(a *Point) *big.Int {
	num := new(big.Int).Mul(a.X, a.X)
	num.Mul(num, big.NewInt(3))
	num.Add(num, big.NewInt(1))
	den := new(big.Int).Lsh(a.Y, 1)
	den.Mod(den, p.P)
	den.ModInverse(den, p.P)
	lambda := num.Mul(num, den)
	return lambda.Mod(lambda, p.P)
}

// chord completes point addition given the chord/tangent slope.
func (p *Params) chord(a, b *Point, lambda *big.Int) *Point {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, a.X)
	x3.Sub(x3, b.X)
	x3.Mod(x3, p.P)
	y3 := new(big.Int).Sub(a.X, x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, a.Y)
	y3.Mod(y3, p.P)
	return &Point{X: x3, Y: y3}
}

// ScalarMul returns k·pt using inversion-free Jacobian double-and-add on
// the Montgomery field (see jacobian.go). The scalar is reduced modulo the
// group order r and recoded to its balanced signed representative, so
// scalars that are small negative residues cost as little as small
// positive ones.
func (p *Params) ScalarMul(pt *Point, k *big.Int) *Point {
	kr := new(big.Int).Mod(k, p.R)
	if kr.Sign() == 0 || pt.IsInfinity() {
		return Infinity()
	}
	digits, flip := p.balancedNAF(kr)
	a := p.toMont(pt)
	if flip {
		a = p.negAffine(&a)
	}
	return p.mulDigits(&a, digits)
}

// ScalarBaseMul returns k·G for the canonical generator.
func (p *Params) ScalarBaseMul(k *big.Int) *Point {
	return p.ScalarMul(p.G, k)
}

// RandomScalar returns a uniformly random scalar in [1, r−1].
func (p *Params) RandomScalar(rand io.Reader) (*big.Int, error) {
	max := new(big.Int).Sub(p.R, big.NewInt(1))
	for {
		buf := make([]byte, (p.R.BitLen()+15)/8)
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, fmt.Errorf("pairing: read random scalar: %w", err)
		}
		k := new(big.Int).SetBytes(buf)
		k.Mod(k, max)
		k.Add(k, big.NewInt(1))
		if k.Sign() > 0 {
			return k, nil
		}
	}
}

// constantTimeByteEq is used by tests to compare encodings without
// early-exit timing artifacts.
func constantTimeByteEq(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}

package pairing

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"cicero/internal/metrics"
)

// Pair computes the symmetric reduced Tate pairing e(a, b) ∈ GT.
//
// Internally it evaluates the Miller function f_{r,a} at the distorted
// point φ(b) = (−x_b, i·y_b) ∈ E(F_{p^2}) and applies the final
// exponentiation z ↦ z^{(p²−1)/r}. The distortion map guarantees
// non-degeneracy for a, b ∈ G1, yielding a symmetric pairing with
// e(s·a, t·b) = e(a, b)^{s·t}.
func (p *Params) Pair(a, b *Point) *GT {
	if a.IsInfinity() || b.IsInfinity() {
		return gtOne()
	}
	metrics.Crypto.Pairings.Add(1)
	return p.miller(a, b).finalExp(p.H)
}

// miller runs Miller's algorithm computing f_{r,a}(φ(b)). It walks the
// running point in affine math/big arithmetic, paying an inversion per
// step; it is the reference that Prepare's cached walk must agree with,
// not a hot path.
func (p *Params) miller(a, b *Point) *gtAcc {
	mb := p.toMont(b)
	f := newGTAcc(p)
	v := a.Clone()

	// tangent multiplies in the tangent line at v and doubles v.
	tangent := func() {
		lambda := p.tangentSlope(v)
		ln := p.chordLine(v.X, v.Y, lambda)
		f.mulLine(&ln, &mb.x, &mb.y)
		v = p.chord(v, v, lambda)
	}
	// vertical multiplies in the vertical line at v, which sends v to ∞.
	vertical := func() {
		ln := p.verticalLine(v.X)
		f.mulLine(&ln, &mb.x, &mb.y)
		v = Infinity()
	}

	for i := p.R.BitLen() - 2; i >= 0; i-- {
		// Doubling step: f ← f² · l_{v,v}(φ(b)); v ← 2v.
		f.square()
		if !v.IsInfinity() {
			if v.Y.Sign() == 0 {
				vertical()
			} else {
				tangent()
			}
		}
		if p.R.Bit(i) == 1 {
			// Addition step: f ← f · l_{v,a}(φ(b)); v ← v + a.
			switch {
			case v.IsInfinity():
				v = a.Clone()
			case v.X.Cmp(a.X) == 0:
				sum := new(big.Int).Add(v.Y, a.Y)
				sum.Mod(sum, p.P)
				if sum.Sign() == 0 {
					vertical()
				} else {
					tangent() // v == a
				}
			default:
				lambda := p.chordSlope(v, a)
				ln := p.chordLine(v.X, v.Y, lambda)
				f.mulLine(&ln, &mb.x, &mb.y)
				v = p.chord(v, a, lambda)
			}
		}
	}
	return f
}

// HashToG1 hashes arbitrary bytes to a point of order r using
// try-and-increment followed by cofactor clearing.
func (p *Params) HashToG1(msg []byte) *Point {
	f := &p.fp
	for ctr := uint32(0); ; ctr++ {
		var a affine
		f.fromBig(&a.x, p.hashToField(msg, ctr))
		var y2 fe
		p.curveRHS(&y2, &a.x)
		if y2.isZero() {
			continue
		}
		// Since p ≡ 3 (mod 4), a square root, if any, is y2^((p+1)/4).
		if !f.sqrt(&a.y, &y2) {
			continue // not a quadratic residue; try next counter
		}
		pt := p.mulDigits(&a, p.hDigits)
		if pt.IsInfinity() {
			continue
		}
		return pt
	}
}

// hashToField expands (msg, ctr) into a field element via SHA-256 in
// counter mode, taking enough blocks to cover the field width plus a
// 128-bit reduction margin.
func (p *Params) hashToField(msg []byte, ctr uint32) *big.Int {
	need := (p.P.BitLen()+7)/8 + 16
	var out []byte
	var block uint32
	for len(out) < need {
		h := sha256.New()
		h.Write([]byte("cicero/pairing/h2f"))
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], ctr)
		binary.BigEndian.PutUint32(hdr[4:], block)
		h.Write(hdr[:])
		h.Write(msg)
		out = h.Sum(out)
		block++
	}
	x := new(big.Int).SetBytes(out[:need])
	return x.Mod(x, p.P)
}

// HashToScalar hashes arbitrary bytes to a scalar modulo r.
func (p *Params) HashToScalar(msg []byte) *big.Int {
	need := (p.R.BitLen()+7)/8 + 16
	var out []byte
	var block uint32
	for len(out) < need {
		h := sha256.New()
		h.Write([]byte("cicero/pairing/h2s"))
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], block)
		h.Write(hdr[:])
		h.Write(msg)
		out = h.Sum(out)
		block++
	}
	x := new(big.Int).SetBytes(out[:need])
	return x.Mod(x, p.R)
}

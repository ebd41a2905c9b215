package pairing

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// Base-field arithmetic on fixed-size limbs in Montgomery form. Every hot
// walk of the package (Jacobian scalar multiplication, hashing to the
// curve, the F_{p²} pairing accumulator) runs on this type, so it works
// without heap allocation or division; conversion to and from *big.Int
// happens only where a Point or GT crosses the package API.
//
// One implementation serves both parameter sets: the limb count n is 4
// for Fast254 and 8 for Std512, and loops run over the first n limbs.

// maxLimbs is the widest supported field, in 64-bit words.
const maxLimbs = 8

// fe is a field element in Montgomery form x·R mod p with R = 2^(64n),
// little-endian, fully reduced into [0, p). Limbs at index n and above
// are always zero, so two elements are equal exactly when the arrays are.
type fe [maxLimbs]uint64

// field holds the Montgomery constants for one prime p.
type field struct {
	n       int
	modulus *big.Int
	p       fe     // the modulus, as plain limbs
	pInv    uint64 // −p⁻¹ mod 2⁶⁴
	one     fe     // R mod p: the Montgomery form of 1
	r2      fe     // R² mod p: converts a plain value into Montgomery form
	r3      fe     // R³ mod p: corrects a plain inverse of a Montgomery form
	sqrtExp fe     // (p + 1)/4, as plain limbs (square roots for p ≡ 3 mod 4)
}

// newField derives the Montgomery constants for an odd prime p of at most
// 64·maxLimbs bits.
func newField(p *big.Int) field {
	n := (p.BitLen() + 63) / 64
	if n > maxLimbs || p.Bit(0) == 0 {
		panic("pairing: unsupported field modulus")
	}
	f := field{n: n, modulus: p}
	f.p = f.limbs(p)
	// Newton iteration for p⁻¹ mod 2⁶⁴: each step doubles the correct bits.
	inv := uint64(1)
	for i := 0; i < 6; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.pInv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	f.one = f.limbs(new(big.Int).Mod(r, p))
	f.r2 = f.limbs(new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	f.r3 = f.limbs(new(big.Int).Mod(new(big.Int).Lsh(f.bigOf(&f.r2), uint(64*n)), p))
	f.sqrtExp = f.limbs(new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2))
	return f
}

// limbs returns the plain little-endian limbs of 0 ≤ x < 2^(64n).
func (f *field) limbs(x *big.Int) fe {
	var buf [8 * maxLimbs]byte
	w := buf[:8*f.n]
	x.FillBytes(w)
	var z fe
	for i := 0; i < f.n; i++ {
		z[i] = binary.BigEndian.Uint64(w[8*(f.n-1-i):])
	}
	return z
}

// fromBig sets z to the Montgomery form of x mod p. Values outside
// [0, p) take a math/big reduction first; package outputs and parsed
// points never do.
func (f *field) fromBig(z *fe, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(f.modulus) >= 0 {
		x = new(big.Int).Mod(x, f.modulus)
	}
	*z = f.limbs(x)
	f.mul(z, z, &f.r2)
}

// toBig returns the canonical integer value of x.
func (f *field) toBig(x *fe) *big.Int {
	one := fe{1}
	var plain fe
	f.mul(&plain, x, &one)
	return f.bigOf(&plain)
}

// bigOf returns the integer whose plain limbs are x.
func (f *field) bigOf(x *fe) *big.Int {
	var buf [8 * maxLimbs]byte
	w := buf[:8*f.n]
	for i := 0; i < f.n; i++ {
		binary.BigEndian.PutUint64(w[8*(f.n-1-i):], x[i])
	}
	return new(big.Int).SetBytes(w)
}

// mul sets z = x·y·R⁻¹ mod p (the Montgomery product) by coarsely
// integrated operand scanning, with the multiplication and reduction
// carry chains fused into one inner loop. After each outer step the
// running sum t is below 2p; a modulus filling all 64n bits (Std512)
// needs the carry word t[n] for that. z may alias x or y.
func (f *field) mul(z, x, y *fe) {
	n := f.n
	var t [maxLimbs + 1]uint64
	for i := 0; i < n; i++ {
		yi := y[i]
		// Word 0: u = t[0] + x[0]·yi, and m cancels its low word mod 2⁶⁴.
		ah, al := bits.Mul64(x[0], yi)
		al, c := bits.Add64(al, t[0], 0)
		ah += c
		m := al * f.pInv
		bh, bl := bits.Mul64(m, f.p[0])
		_, c = bits.Add64(bl, al, 0)
		bh += c
		// Words 1..n−1: t[j−1] = t[j] + x[j]·yi + m·p[j] + carries.
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			lo, c = bits.Add64(lo, ah, 0)
			ah = hi + c
			hi, w := bits.Mul64(m, f.p[j])
			w, c = bits.Add64(w, lo, 0)
			hi += c
			w, c = bits.Add64(w, bh, 0)
			bh = hi + c
			t[j-1] = w
		}
		var c2 uint64
		t[n-1], c = bits.Add64(t[n], ah, 0)
		t[n-1], c2 = bits.Add64(t[n-1], bh, 0)
		t[n] = c + c2
	}
	// t < 2p: subtract p once unless that borrows past the carry word.
	var b uint64
	var d [maxLimbs]uint64
	for j := 0; j < n; j++ {
		d[j], b = bits.Sub64(t[j], f.p[j], b)
	}
	_, b = bits.Sub64(t[n], 0, b)
	keep := -b // all ones when t < p
	for j := 0; j < n; j++ {
		z[j] = d[j] ^ ((d[j] ^ t[j]) & keep)
	}
}

// add sets z = x + y mod p.
func (f *field) add(z, x, y *fe) {
	n := f.n
	var s, d [maxLimbs]uint64
	var c, b uint64
	for j := 0; j < n; j++ {
		s[j], c = bits.Add64(x[j], y[j], c)
		d[j], b = bits.Sub64(s[j], f.p[j], b)
	}
	_, b = bits.Sub64(c, 0, b)
	keep := -b // all ones when x + y < p
	for j := 0; j < n; j++ {
		z[j] = d[j] ^ ((d[j] ^ s[j]) & keep)
	}
}

// sub sets z = x − y mod p.
func (f *field) sub(z, x, y *fe) {
	n := f.n
	var d [maxLimbs]uint64
	var b, c uint64
	for j := 0; j < n; j++ {
		d[j], b = bits.Sub64(x[j], y[j], b)
	}
	mask := -b // add p back when the difference borrowed
	for j := 0; j < n; j++ {
		z[j], c = bits.Add64(d[j], f.p[j]&mask, c)
	}
}

// neg sets z = −x mod p.
func (f *field) neg(z, x *fe) {
	var zero fe
	f.sub(z, &zero, x)
}

// exp sets z = x^e for a plain (non-Montgomery) exponent e, with a fixed
// 4-bit window.
func (f *field) exp(z, x, e *fe) {
	var table [16]fe
	table[0] = f.one
	for i := 1; i < len(table); i++ {
		f.mul(&table[i], &table[i-1], x)
	}
	r := f.one
	for i := 64*f.n - 4; i >= 0; i -= 4 {
		f.mul(&r, &r, &r)
		f.mul(&r, &r, &r)
		f.mul(&r, &r, &r)
		f.mul(&r, &r, &r)
		if w := e[i/64] >> (i % 64) & 15; w != 0 {
			f.mul(&r, &r, &table[w])
		}
	}
	*z = r
}

// inv sets z = x⁻¹; the inverse of zero is zero. It is the one field
// operation left to math/big: the extended GCD behind ModInverse costs a
// fraction of a Fermat exponentiation, and inversions happen once per
// scalar multiplication or pairing. Inverting the Montgomery form x·R as
// a plain integer gives x⁻¹·R⁻¹, which one multiplication by R³ brings
// back to the Montgomery form x⁻¹·R.
func (f *field) inv(z, x *fe) {
	if x.isZero() {
		*z = fe{}
		return
	}
	v := f.bigOf(x)
	*z = f.limbs(v.ModInverse(v, f.modulus))
	f.mul(z, z, &f.r3)
}

// sqrt sets z to a square root of x and reports whether one exists. For
// p ≡ 3 (mod 4) the candidate is x^((p+1)/4).
func (f *field) sqrt(z, x *fe) bool {
	var y, check fe
	f.exp(&y, x, &f.sqrtExp)
	f.mul(&check, &y, &y)
	if check != *x {
		return false
	}
	*z = y
	return true
}

// isZero reports whether x is the zero element.
func (x *fe) isZero() bool { return *x == fe{} }

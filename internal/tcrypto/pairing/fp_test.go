package pairing

import (
	"math/big"
	"testing"
)

// FuzzFp checks the Montgomery field against math/big on both parameter
// sets: every operation on reduced inputs must agree with the textbook
// result modulo p, and conversion into and out of Montgomery form must
// round-trip.
func FuzzFp(f *testing.F) {
	for _, params := range []*Params{Fast254(), Std512()} {
		p := params.P
		half := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
		seeds := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(p, big.NewInt(1)),
			half,
			new(big.Int).Add(half, big.NewInt(1)),
		}
		// Values on and around every limb boundary.
		for k := 64; k < p.BitLen(); k += 64 {
			b := new(big.Int).Lsh(big.NewInt(1), uint(k))
			seeds = append(seeds, b, new(big.Int).Sub(b, big.NewInt(1)), new(big.Int).Sub(p, b))
		}
		sel := byte(0)
		if params == Std512() {
			sel = 1
		}
		for i, a := range seeds {
			b := seeds[(i+1)%len(seeds)]
			f.Add(sel, a.Bytes(), b.Bytes())
			f.Add(sel, a.Bytes(), a.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, rawA, rawB []byte) {
		params := Fast254()
		if sel&1 == 1 {
			params = Std512()
		}
		fp := &params.fp
		p := params.P
		a := new(big.Int).SetBytes(rawA)
		a.Mod(a, p)
		b := new(big.Int).SetBytes(rawB)
		b.Mod(b, p)
		var ma, mb, z fe
		fp.fromBig(&ma, a)
		fp.fromBig(&mb, b)

		check := func(op string, got *fe, want *big.Int) {
			t.Helper()
			for i := fp.n; i < maxLimbs; i++ {
				if got[i] != 0 {
					t.Fatalf("%s(%x, %x): limb %d above n is set", op, a, b, i)
				}
			}
			if g := fp.toBig(got); g.Cmp(want) != 0 {
				t.Fatalf("%s(%x, %x) = %x, want %x", op, a, b, g, want)
			}
		}
		mod := func(x *big.Int) *big.Int { return x.Mod(x, p) }

		check("roundtrip", &ma, a)
		if fp.bigOf(&ma).Cmp(p) >= 0 {
			t.Fatalf("Montgomery form of %x is not reduced", a)
		}
		fp.mul(&z, &ma, &mb)
		check("mul", &z, mod(new(big.Int).Mul(a, b)))
		fp.mul(&z, &ma, &ma)
		check("square", &z, mod(new(big.Int).Mul(a, a)))
		fp.add(&z, &ma, &mb)
		check("add", &z, mod(new(big.Int).Add(a, b)))
		fp.sub(&z, &ma, &mb)
		check("sub", &z, mod(new(big.Int).Sub(a, b)))
		fp.neg(&z, &ma)
		check("neg", &z, mod(new(big.Int).Neg(a)))
		z = ma
		fp.mul(&z, &z, &z) // fully aliased operands
		check("mul/aliased", &z, mod(new(big.Int).Mul(a, a)))

		fp.inv(&z, &ma)
		if a.Sign() == 0 {
			check("inv", &z, new(big.Int))
		} else {
			check("inv", &z, new(big.Int).ModInverse(a, p))
		}

		ok := fp.sqrt(&z, &ma)
		want := new(big.Int).ModSqrt(a, p)
		if ok != (want != nil) {
			t.Fatalf("sqrt(%x): exists = %v, math/big says %v", a, ok, want != nil)
		}
		if ok {
			// Both roots are valid; the field returns a^((p+1)/4).
			check("sqrt", &z, new(big.Int).Exp(a, params.fp.bigOf(&params.fp.sqrtExp), p))
		}
	})
}

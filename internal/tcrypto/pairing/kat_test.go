package pairing_test

import (
	"encoding/hex"
	"math/big"
	"testing"

	"cicero/internal/tcrypto/bls"
	"cicero/internal/tcrypto/pairing"
)

// Known-answer tests: fixed inputs with outputs recorded from the
// math/big reference implementation. Any change to the field, curve or
// pairing arithmetic must reproduce these encodings bit for bit, because
// signatures, digests and wire bytes elsewhere depend on them.

type katVectors struct {
	hash      [3]string // PointBytes(HashToG1(katMessages[i]))
	scalarMul [3]string // PointBytes(ScalarMul(H0, katScalars(p)[i]))
	multi     string    // PointBytes(MultiScalarMul(H0..H2, Lagrange-style))
	pairRaw   string    // GTBytes(PairProduct) with unprepared terms
	pairPrep  string    // GTBytes(PairProduct) with a prepared term
	blsSig    string    // PointBytes of the combined threshold signature
}

var katMessages = [3][]byte{
	[]byte(""),
	[]byte("cicero/kat/update-1"),
	[]byte("cicero/kat/\x00\xff/a-longer-message-that-spans-more-than-one-sha256-block-of-input-bytes"),
}

// katScalars returns a small scalar, a full-width scalar and a scalar
// just below the group order r.
func katScalars(p *pairing.Params) [3]*big.Int {
	full := new(big.Int).Rsh(p.R, 1)
	full.Sub(full, big.NewInt(0x5eed))
	return [3]*big.Int{
		big.NewInt(7),
		full,
		new(big.Int).Sub(p.R, big.NewInt(3)),
	}
}

// katLagrange returns the Lagrange coefficients at zero for the quorum
// {1, 2, 4}: 8/3, −4 and 1/3 modulo r.
func katLagrange(p *pairing.Params) []*big.Int {
	inv3 := new(big.Int).ModInverse(big.NewInt(3), p.R)
	l1 := new(big.Int).Mul(big.NewInt(8), inv3)
	l1.Mod(l1, p.R)
	l2 := new(big.Int).Sub(p.R, big.NewInt(4))
	return []*big.Int{l1, l2, inv3}
}

var katWant = map[string]katVectors{
	"fast254": {
		hash: [3]string{
			"0412a9f6a63836028bcf7b85fc43df636ee0dc5c5a1146ffe0583722924ccb5143128651e1c612330154ae003fd7afe33efd06dab909b91519894c3b15aab803c7",
			"042895b6739f641955ebb016fd4ef6d415b0dc48c409d1c275904f1bae8ed3bab20d92aa8f6f595e58cd3320db0d771e192e4a44e1854461bd00c6999af78fd911",
			"041d4a880baff91d628150c4dc4382787f6f479ed5c01fdc310c528f1d92eba61e311648752cf7b902b337ce4d8c8525f9d0ea2529d493cc179e515e34e195ff04",
		},
		scalarMul: [3]string{
			"040a038ab4e8f90b7e7ff511cf3531d2dccc210ee9a7a4a3c7e3418a95397d6b2a0fbf2b312ddc501165035f9629f4ebf1b5d617fcf6896173a671665c59040a4b",
			"042fd2fb2c1876100cbec09bec4845f512f88c9e61e0972adbf5f4c3ec24a129861a26c7f7bcff5afb30f2fb7453a9d81bd7146e4d75151fa78a892a9e29bcbea2",
			"040d39167d232dc0a2ef5bde7c0f60241a51fa37b31f7bbb57a7977c4b44a04cd40d645b90029611f69fbb6c95bbcc8ac0221dd9a90af9e334f7e255bca85537cf",
		},
		multi:    "0412bf09cb0ad6146513a4f933e1095057933b3507e95427bdd780dfb5e4d5c019247cc6c06d34e7d4ae1cdaa91a23108bcbe380a164b3e0c00c18db31d7d19f4f",
		pairRaw:  "1efe88a6ed0d1c702600d9a8234db8e2cee5aaf76f3748459e4058bac5d0117d041ad8dac62ae4aa6a5449fe8c13992fa103be8ed5f0d9d0f290c848e9ae5bbd",
		pairPrep: "1efe88a6ed0d1c702600d9a8234db8e2cee5aaf76f3748459e4058bac5d0117d041ad8dac62ae4aa6a5449fe8c13992fa103be8ed5f0d9d0f290c848e9ae5bbd",
		blsSig:   "040308f631ebe359eace5a59ae0fd2980e409f23914ea84f02342fe54d1af594da206a5a5febd0372990c8dc69a39954332d913888e25f86287d8a9111bca6d11c",
	},
	"std512": {
		hash: [3]string{
			"04a3a17c428df6cdbfb208cecca9ef6528025d77fb51ad5ce747e7a39057c645e5826174f35330aee11166040fd1bd4cfcb2cf144a98588c643c7ca2fe6b26d78b875aa8184ec481ccb3678074b509f591e12e91fd8463c83681ba90f76f17c14df4182b0394b98f7c8c1725a605fbaea12fb3dbe44b829439108078e49b29cd3a",
			"0449df45cc9e4ba4e241674e3e22909435c1e977e8d8d50df763e6c9aa1cf299d965d0efd92d6e26f090c1e0dbb126d9e33d10bc944a689857b9aa80c515c23d0ba332e45c7cf0a864a0e55746a5a00a9ef5f458f9356929a94bcc896453ca1c8380108d447ad75950d0a1314fe27ad5d0673157a8888ae0adb84c90b141d10956",
			"046d63e151524493f1b86a18b658ab27fddedbb8c361f2cb54c425b4d82e774981f9b22a3572cecee77f6892564d15cafc7c62823473e20858c5e02484b2371b075de9dd50ddd90372be392e8dfdfa708ff0f205acbc7a8214ef247249d5bd6eb67698d3768a32323693886964ea98df45280336b09b675925b2d0246666938294",
		},
		scalarMul: [3]string{
			"0446e21d914fb8dc212d3ce591ffe680f902cb6f44674a47c6fa849dcdb389e51934dd81907cee9f872b974da7a19e070e00884f8baa68f4aea8a9b4905f58e2d50ff0eac8e04a45380954b0f290a1aa0c149d4b411d8d9e6a34832877ee0601c6f3290b70c777863fa5b49cf369f57930be44cd05cee9241c51bc77397c735a64",
			"048916427c466ab3075516852e366d3df679a56e2b66a3d65cafa2c369e1432d9c4bb5485c1c549fa03e9fa0a8b61379fd651fdae213611fafad2d64b7c1d915a727613fcba6a1117e8942bbd1a14dcb76aeee3970c47e28f17f30b32733d5e501abb3cffdb79ee744ed62bf32fa887eb6d736122a7f42d6d03c6dcb927879dfc2",
			"0426f4ddbfa01109f9181e32d4dd48a03741af6b07aeb977f5ff8ce8a3e8710c0349b9b9f29e8a254c98d9f6d6884bc8285325804286c5f80436a71a446d727f9aab4ce6a6f412d3ab5dd464219a7d1f2b79f76e3265a1aa4651323a6d231f67147aa74312f2a56e020c1a296a884e637f25d64fda68b0f7b0fff96d04022d12d0",
		},
		multi:    "04c457be4c82fdd76bb26bb16816a640f54269a554ee655f1228097d0ca1af1464806f9ed0ddd5c2a3fe7acf5aed76397462dc258b773d5492e67d10bef79c72286d71f0e6588f85222d7cfb9da4d988affb22e681ed269c258353509d626f226109703f938a2f752d6c01b2064f7c6397da8f2296b2bf7d68877a42c719f5f9ae",
		pairRaw:  "c29df7237a5a69b01744ccc0fa8326dbf43e4bdb19119a26bccaad8e6fbbba8c5ecccdfb29fa2e18fb93e0ad80bd87a0083e9a4fa3d320623dda3f35ea02cb7ea6041d3ad870c4137dad6565d40b30ece915440d2228f4d63b0ab1598c3f86359f4721b7daa2c44d038628072ec420bab847874bf9ff4a2a01d51142b9c3b275",
		pairPrep: "c29df7237a5a69b01744ccc0fa8326dbf43e4bdb19119a26bccaad8e6fbbba8c5ecccdfb29fa2e18fb93e0ad80bd87a0083e9a4fa3d320623dda3f35ea02cb7ea6041d3ad870c4137dad6565d40b30ece915440d2228f4d63b0ab1598c3f86359f4721b7daa2c44d038628072ec420bab847874bf9ff4a2a01d51142b9c3b275",
		blsSig:   "0461571c15f927f56e8ddd78c80c510c60f5a01c36d935dda06b70f4df6cb7c23b689b76c5a2d665714471a085c873aee76c2cdcc5432acd33f745b0d5ebb12c047344a8e5d360a2030424b1f0f367f8b473781327aaabd4dff701663f78e4a2f7ca6eec78c543a12494b84f9d0e0df211b7e73c412db42a9e866c1f86876ddc43",
	},
}

func katHex(b []byte) string { return hex.EncodeToString(b) }

func TestKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params *pairing.Params
	}{
		{"fast254", pairing.Fast254()},
		{"std512", pairing.Std512()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := katCompute(t, tc.params)
			want := katWant[tc.name]
			check := func(label, g, w string) {
				t.Helper()
				if g != w {
					t.Errorf("%s:\n got %s\nwant %s", label, g, w)
				}
			}
			for i := range got.hash {
				check("HashToG1", got.hash[i], want.hash[i])
			}
			for i := range got.scalarMul {
				check("ScalarMul", got.scalarMul[i], want.scalarMul[i])
			}
			check("MultiScalarMul", got.multi, want.multi)
			check("PairProduct/unprepared", got.pairRaw, want.pairRaw)
			check("PairProduct/prepared", got.pairPrep, want.pairPrep)
			check("bls threshold signature", got.blsSig, want.blsSig)
		})
	}
}

func katCompute(t *testing.T, p *pairing.Params) katVectors {
	var v katVectors
	var h [3]*pairing.Point
	for i, msg := range katMessages {
		h[i] = p.HashToG1(msg)
		v.hash[i] = katHex(p.PointBytes(h[i]))
	}
	for i, k := range katScalars(p) {
		v.scalarMul[i] = katHex(p.PointBytes(p.ScalarMul(h[0], k)))
	}
	v.multi = katHex(p.PointBytes(p.MultiScalarMul(h[:], katLagrange(p))))

	// e(H0, H1)·e(5·G, H2) over live points, and the same product with
	// the generator prepared and its scalar moved to the other argument.
	five := p.ScalarBaseMul(big.NewInt(5))
	v.pairRaw = katHex(p.GTBytes(p.PairProduct(
		pairing.ProductTerm{A: h[0], B: h[1]},
		pairing.ProductTerm{A: five, B: h[2]},
	)))
	v.pairPrep = katHex(p.GTBytes(p.PairProduct(
		pairing.ProductTerm{Prep: p.Prepare(p.G), B: p.ScalarMul(h[2], big.NewInt(5))},
		pairing.ProductTerm{A: h[0], B: h[1]},
	)))
	if v.pairRaw != v.pairPrep {
		t.Errorf("bilinearity: prepared and unprepared products differ")
	}

	// A (3, 4) threshold key from the fixed polynomial f(x) = a0 + a1·x + a2·x².
	scheme := bls.NewScheme(p)
	coeffs := []*big.Int{
		new(big.Int).Sub(p.R, big.NewInt(0xc1ce)),
		big.NewInt(0x1234567),
		new(big.Int).Rsh(p.R, 3),
	}
	gk := &bls.GroupKey{T: 3, N: 4, Commitments: make([]*pairing.Point, len(coeffs))}
	for j, a := range coeffs {
		gk.Commitments[j] = p.ScalarBaseMul(a)
	}
	gk.PK = bls.PublicKey{Point: gk.Commitments[0]}
	var shares []bls.SignatureShare
	for _, idx := range []uint32{1, 2, 4} {
		x := new(big.Int).SetUint64(uint64(idx))
		d := new(big.Int)
		for j := len(coeffs) - 1; j >= 0; j-- {
			d.Mul(d, x)
			d.Add(d, coeffs[j])
			d.Mod(d, p.R)
		}
		shares = append(shares, scheme.SignShare(bls.KeyShare{Index: idx, Scalar: d}, katMessages[1]))
	}
	sig, err := scheme.Combine(gk, shares)
	if err != nil {
		t.Fatalf("combine: %v", err)
	}
	if !scheme.VerifyDigest(gk.PK, h[1], sig) {
		t.Errorf("combined threshold signature does not verify")
	}
	v.blsSig = katHex(sig.Bytes(scheme))
	return v
}

package channel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expDigest is the SHA-256 of exp's bits over expArgs(1 << 20).
const expDigest = "8501ff94d077ccc1aac289ee018629184874a5396ec5e07fa590e8bc553b2397"

// expArgs returns n seeded arguments: the fading process's −dt/τ over
// seconds and over microseconds, the whole range from underflow to
// overflow, and any bit pattern at all (NaNs and infinities included).
func expArgs(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		switch i % 4 {
		case 0:
			xs[i] = -rng.Float64() * 50
		case 1:
			xs[i] = -math.Ldexp(rng.Float64(), -rng.Intn(40))
		case 2:
			xs[i] = (rng.Float64()*2 - 1) * 760
		case 3:
			xs[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return xs
}

// TestExpFollowsTheFMAPath: exp computes the same bits on every build,
// held by a digest over a million seeded arguments, and they are the
// bits math.Exp computes on an amd64 CPU with FMA. Such a host is told
// by two probes at which math.Exp's other two paths round the other
// way, and there exp must equal math.Exp at every argument. The other
// paths differ from it by more than rounding at the edges: the assembly
// overflows to +Inf from x ≈ 709.44 on, where the Go code still returns
// a finite value (the fading process only ever asks for x ≤ 0).
func TestExpFollowsTheFMAPath(t *testing.T) {
	fmaHost := math.Exp(-0.18108315458307822) == 0.8343659744562802 &&
		math.Exp(-1.0528078217469854) == 0.3489565644295804
	h := sha256.New()
	var buf [8]byte
	for _, x := range expArgs(1 << 20) {
		got := exp(x)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(got))
		h.Write(buf[:])
		if want := math.Exp(x); fmaHost && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("exp(%v) = %v, math.Exp's FMA path %v", x, got, want)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != expDigest {
		t.Errorf("exp over the seeded arguments hashes to %s, want %s", got, expDigest)
	}
	if !fmaHost {
		t.Log("math.Exp does not take the FMA path here: checked against the digest only")
	}
}

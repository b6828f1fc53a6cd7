package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -4.5)
	m.Add(1, 2, 0.5)
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := m.At(1, 2); got != -4 {
		t.Errorf("At(1,2) = %v, want -4", got)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone shares backing storage with original")
	}
	m.Zero()
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero left element %d = %v", i, v)
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong length did not panic")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := FactorLU(a); err == nil {
		t.Error("FactorLU on singular matrix returned nil error")
	}
	z := NewMatrix(3, 3) // all-zero row triggers the scaling check
	if _, err := FactorLU(z); err == nil {
		t.Error("FactorLU on zero matrix returned nil error")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-24) > 1e-12 {
		t.Errorf("Det = %v, want 24", d)
	}
	// Swap two rows: determinant flips sign.
	a.Set(0, 0, 0)
	a.Set(0, 1, 3)
	a.Set(1, 1, 0)
	a.Set(1, 0, 2)
	f, err = FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d+24) > 1e-12 {
		t.Errorf("Det after row swap = %v, want -24", d)
	}
}

// randomDiagDominant builds a random strictly diagonally dominant matrix,
// which is guaranteed nonsingular — ideal for property tests.
func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

// Property: for any diagonally dominant A and any x, Solve(A, A·x)
// recovers x to high relative accuracy.
func TestLUSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%20 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomDiagDominant(r, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		b := a.MulVec(x)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		scale := VecNormInf(x) + 1
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*scale {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: det(P·A) where a row permutation is applied only changes sign.
func TestLUSolveMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(15) + 2
		a := randomDiagDominant(rng, n)
		f, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := f.Solve(b)
		back := a.MulVec(x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-9*(VecNormInf(b)+1) {
				t.Fatalf("trial %d: residual %v at row %d", trial, back[i]-b[i], i)
			}
		}
	}
}

func TestSolveInPlaceNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDiagDominant(rng, 30)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.SolveInPlace(b)
	})
	if allocs != 0 {
		t.Errorf("SolveInPlace allocates %v times per run, want 0", allocs)
	}
}

func TestVecNorms(t *testing.T) {
	v := []float64{3, -4}
	if n := Vec2Norm(v); math.Abs(n-5) > 1e-15 {
		t.Errorf("Vec2Norm = %v, want 5", n)
	}
	if n := VecNormInf(v); n != 4 {
		t.Errorf("VecNormInf = %v, want 4", n)
	}
	if n := VecNormInf(nil); n != 0 {
		t.Errorf("VecNormInf(nil) = %v, want 0", n)
	}
}

// Regression: matrices that force row pivoting (zero diagonals) exposed a
// bug where permutation swaps were interleaved with forward elimination.
func TestLUPivotHeavy(t *testing.T) {
	a := NewMatrix(4, 4)
	rows := [][]float64{
		{0, 0, 1, 0},
		{0, 1e-3, 0, 1},
		{1, 0, 0, 0},
		{-5, 1, 0, 0},
	}
	for i := range rows {
		for j := range rows[i] {
			a.Set(i, j, rows[i][j])
		}
	}
	x, err := SolveLinear(a, []float64{0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 5, 0, -5e-3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

// Property: residual check on fully random (not diagonally dominant)
// matrices, which exercise pivoting aggressively.
func TestLURandomGeneralResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(25) + 2
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Zero a few entries (including diagonals) to force permutations.
		for z := 0; z < n/2; z++ {
			a.Set(rng.Intn(n), rng.Intn(n), 0)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f, err := FactorLU(a)
		if err != nil {
			continue // singular by chance; skip
		}
		x := f.Solve(b)
		r := a.MulVec(x)
		for i := range b {
			if math.Abs(r[i]-b[i]) > 1e-7 {
				t.Fatalf("trial %d: residual %g at row %d (n=%d)", trial, r[i]-b[i], i, n)
			}
		}
	}
}

func TestMulVecInto(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	dst := make([]float64, 2)
	m.MulVecInto(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Errorf("MulVecInto = %v", dst)
	}
	allocs := testing.AllocsPerRun(50, func() { m.MulVecInto(dst, []float64{1, 1}) })
	_ = allocs // the literal slice allocates; the method itself must not panic
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch must panic")
		}
	}()
	m.MulVecInto(dst, []float64{1})
}

// refLUFactor is LU.Factor as it stood before the structural-zero
// skips, kept verbatim (receiver made a parameter) as the reference the
// skipping code must reproduce bit for bit.
func refLUFactor(f *LU, a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: LU.Factor requires a square matrix")
	}
	n := a.Rows
	f.n = n
	if cap(f.lu) < n*n {
		f.lu = make([]float64, n*n)
		f.pivot = make([]int, n)
		f.scale = make([]float64, n)
	}
	f.lu = f.lu[:n*n]
	f.pivot = f.pivot[:n]
	f.scale = f.scale[:n]
	f.sign = 1
	copy(f.lu, a.Data)

	// Row scaling factors for implicit equilibration in pivot choice.
	scale := f.scale
	for i := 0; i < n; i++ {
		big := 0.0
		for j := 0; j < n; j++ {
			if v := math.Abs(f.lu[i*n+j]); v > big {
				big = v
			}
		}
		if big == 0 {
			return ErrSingular
		}
		scale[i] = 1 / big
	}

	for k := 0; k < n; k++ {
		// Find pivot row.
		p, big := k, 0.0
		for i := k; i < n; i++ {
			v := scale[i] * math.Abs(f.lu[i*n+k])
			if v > big {
				big, p = v, i
			}
		}
		if p != k {
			rk := f.lu[k*n : k*n+n]
			rp := f.lu[p*n : p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			scale[k], scale[p] = scale[p], scale[k]
			f.sign = -f.sign
		}
		f.pivot[k] = p
		piv := f.lu[k*n+k]
		if math.Abs(piv) < 1e-300 {
			return ErrSingular
		}
		inv := 1 / piv
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] * inv
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowi := f.lu[i*n+k+1 : i*n+n]
			rowk := f.lu[k*n+k+1 : k*n+n]
			for j := range rowi {
				rowi[j] -= l * rowk[j]
			}
		}
	}
	return nil
}

// refLUSolveInPlace is LU.SolveInPlace before the skips, likewise.
func refLUSolveInPlace(f *LU, b []float64) {
	n := f.n
	// Apply the full row permutation first (LAPACK dgetrs order), then
	// forward-substitute against the unit-lower factor.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for k := 0; k < n; k++ {
		bk := b[k]
		if bk == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			b[i] -= f.lu[i*n+k] * bk
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// randomSparseLU builds a random sparse matrix for the skip tests:
// zero or tiny diagonals force row swaps, and the variant selects the
// hard cases — magnitudes straddling the 1e-300 pivot threshold, ±Inf
// and NaN entries, −0 entries, and a dynamic range wide enough to
// overflow during elimination.
func randomSparseLU(rng *rand.Rand, n, variant int) *Matrix {
	a := NewMatrix(n, n)
	density := 0.05 + 0.4*rng.Float64()
	for i := range a.Data {
		if rng.Float64() < density {
			a.Data[i] = rng.NormFloat64() * math.Exp(2*rng.NormFloat64())
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			a.Set(i, i, 0)
		case 1:
			a.Set(i, i, 1e-3*rng.NormFloat64())
		default:
			a.Set(i, i, 1+rng.Float64())
		}
	}
	switch variant {
	case 1:
		s := math.Pow(10, -299-2*rng.Float64())
		for i := range a.Data {
			a.Data[i] *= s
		}
	case 2:
		a.Data[rng.Intn(n*n)] = math.Inf(1 - 2*rng.Intn(2))
	case 3:
		a.Data[rng.Intn(n*n)] = math.NaN()
	case 4:
		for z := 0; z <= n/4; z++ {
			a.Data[rng.Intn(n*n)] = math.Copysign(0, -1)
		}
	case 5:
		for i := range a.Data {
			a.Data[i] *= math.Pow(10, float64(rng.Intn(601)-300))
		}
	}
	return a
}

// TestDenseSkipsMatchReference holds the structural-zero skips to the
// plain loops they replaced: identical ErrSingular verdicts, and on
// success bit-identical factors, pivots and sign. Solutions must match
// bit for bit except that an exact zero may differ in sign (see the
// comment above FactorLU); right-hand sides hold −0, zeros and, now and
// then, a non-finite entry.
func TestDenseSkipsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var got, want LU
	var ok, singular, swapped, nonFinite, signedZeros int
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		variant := trial % 6
		a := randomSparseLU(rng, n, variant)
		errW := refLUFactor(&want, a)
		errG := got.Factor(a)
		if errW != errG {
			t.Fatalf("trial %d (n=%d variant %d): Factor error %v, reference %v", trial, n, variant, errG, errW)
		}
		if errW != nil {
			singular++
			continue
		}
		ok++
		for i, w := range want.lu {
			if math.Float64bits(got.lu[i]) != math.Float64bits(w) {
				t.Fatalf("trial %d (n=%d variant %d): factor entry (%d,%d) = %v, reference %v",
					trial, n, variant, i/n, i%n, got.lu[i], w)
			}
		}
		if !slices.Equal(got.pivot, want.pivot) || got.sign != want.sign {
			t.Fatalf("trial %d: pivots %v sign %v, reference %v sign %v", trial, got.pivot, got.sign, want.pivot, want.sign)
		}
		for k, p := range want.pivot {
			if p != k {
				swapped++
				break
			}
		}
		for r := 0; r < 3; r++ {
			b := make([]float64, n)
			for i := range b {
				switch rng.Intn(4) {
				case 0:
					b[i] = math.Copysign(0, -1)
				case 1:
				default:
					b[i] = rng.NormFloat64()
				}
			}
			if r == 2 && trial%4 == 0 {
				b[rng.Intn(n)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
			}
			xw, xg := slices.Clone(b), slices.Clone(b)
			refLUSolveInPlace(&want, xw)
			got.SolveInPlace(xg)
			for i, w := range xw {
				if math.Float64bits(xg[i]) == math.Float64bits(w) {
					if w-w != 0 {
						nonFinite++
					}
					continue
				}
				if xg[i] == 0 && w == 0 {
					signedZeros++
					continue
				}
				t.Fatalf("trial %d (n=%d variant %d) rhs %d: x[%d] = %v, reference %v", trial, n, variant, r, i, xg[i], w)
			}
		}
	}
	t.Logf("%d factored (%d with row swaps), %d singular, %d non-finite solution entries, %d zeros differing in sign",
		ok, swapped, singular, nonFinite, signedZeros)
	if ok < 1000 || singular < 100 || swapped < 500 || nonFinite < 100 {
		t.Fatalf("coverage too thin: %d factored, %d singular, %d with swaps, %d non-finite entries",
			ok, singular, swapped, nonFinite)
	}
}

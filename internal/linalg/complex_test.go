package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func TestCMatrixBasics(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Set(0, 1, 1+2i)
	m.Add(0, 1, 1i)
	if got := m.At(0, 1); got != 1+3i {
		t.Errorf("At(0,1) = %v, want (1+3i)", got)
	}
	m.Zero()
	if m.At(0, 1) != 0 {
		t.Error("Zero did not clear matrix")
	}
}

func TestCLUSolveKnown(t *testing.T) {
	// (1+j)x = 2j  =>  x = 2j/(1+j) = 1+j
	a := NewCMatrix(1, 1)
	a.Set(0, 0, 1+1i)
	var f CLU
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]complex128{2i})
	if cmplx.Abs(x[0]-(1+1i)) > 1e-14 {
		t.Errorf("x = %v, want (1+1i)", x[0])
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1i)
	a.Set(1, 0, 2)
	a.Set(1, 1, 2i)
	var f CLU
	if err := f.Factor(a); err == nil {
		t.Error("Factor on singular complex matrix returned nil error")
	}
}

func randomCDiagDominant(rng *rand.Rand, n int) *CMatrix {
	a := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				a.Set(i, j, v)
				rowSum += cmplx.Abs(v)
			}
		}
		a.Set(i, i, complex(rowSum+1, rng.NormFloat64()))
	}
	return a
}

func TestCLURoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(12) + 1
		a := randomCDiagDominant(rng, n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			s := complex128(0)
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			b[i] = s
		}
		var f CLU
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		got := f.Solve(b)
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-9 {
				t.Fatalf("trial %d: element %d differs: got %v want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func sortRoots(r []complex128) {
	sort.Slice(r, func(i, j int) bool {
		if real(r[i]) != real(r[j]) {
			return real(r[i]) < real(r[j])
		}
		return imag(r[i]) < imag(r[j])
	})
}

func TestPolyRootsQuadratic(t *testing.T) {
	// (x-1)(x-2) = x² - 3x + 2
	roots, err := new(RootFinder).Roots([]complex128{2, -3, 1})
	if err != nil {
		t.Fatal(err)
	}
	sortRoots(roots)
	if cmplx.Abs(roots[0]-1) > 1e-10 || cmplx.Abs(roots[1]-2) > 1e-10 {
		t.Errorf("roots = %v, want [1 2]", roots)
	}
}

func TestPolyRootsComplexPair(t *testing.T) {
	// x² + 1 = 0 → ±j
	roots, err := new(RootFinder).Roots([]complex128{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if math.Abs(real(r)) > 1e-10 || math.Abs(math.Abs(imag(r))-1) > 1e-10 {
			t.Errorf("root %v not ±j", r)
		}
	}
}

func TestPolyRootsScaledLeading(t *testing.T) {
	// 3(x-5)(x+2) — non-monic input must be normalized.
	roots, err := new(RootFinder).Roots([]complex128{-30, -9, 3})
	if err != nil {
		t.Fatal(err)
	}
	sortRoots(roots)
	if cmplx.Abs(roots[0]+2) > 1e-9 || cmplx.Abs(roots[1]-5) > 1e-9 {
		t.Errorf("roots = %v, want [-2 5]", roots)
	}
}

func TestPolyRootsTrimsLeadingZeros(t *testing.T) {
	// 2 - 2x + 0x² → single root at 1.
	roots, err := new(RootFinder).Roots([]complex128{2, -2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || cmplx.Abs(roots[0]-1) > 1e-10 {
		t.Errorf("roots = %v, want [1]", roots)
	}
}

func TestPolyRootsDegreeZero(t *testing.T) {
	if _, err := new(RootFinder).Roots([]complex128{5}); err == nil {
		t.Error("degree-0 polynomial should return an error")
	}
}

// Property: reconstructing the polynomial from the found roots matches at
// sample points. Uses widely spaced real roots typical of circuit poles.
func TestPolyRootsReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		deg := rng.Intn(6) + 1
		truth := make([]complex128, deg)
		for i := range truth {
			// Spread roots over several decades, as AWE pole sets are.
			mag := math.Pow(10, float64(i)-1)
			truth[i] = complex(-mag*(1+rng.Float64()), 0)
		}
		// Build coefficients from roots: Π (x - r_i)
		coef := []complex128{1}
		for _, r := range truth {
			next := make([]complex128, len(coef)+1)
			for i, c := range coef {
				next[i+1] += c
				next[i] -= c * r
			}
			coef = next
		}
		roots, err := new(RootFinder).Roots(coef)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sortRoots(roots)
		sortRoots(truth)
		for i := range truth {
			rel := cmplx.Abs(roots[i]-truth[i]) / (cmplx.Abs(truth[i]) + 1e-30)
			if rel > 1e-6 {
				t.Fatalf("trial %d deg %d: root %d = %v, want %v (rel %v)", trial, deg, i, roots[i], truth[i], rel)
			}
		}
	}
}

func TestPolyEval(t *testing.T) {
	// p(x) = 1 + 2x + 3x², p(2) = 17
	if got := PolyEval([]complex128{1, 2, 3}, 2); cmplx.Abs(got-17) > 1e-14 {
		t.Errorf("PolyEval = %v, want 17", got)
	}
	if got := PolyEval(nil, 5); got != 0 {
		t.Errorf("PolyEval(nil) = %v, want 0", got)
	}
}

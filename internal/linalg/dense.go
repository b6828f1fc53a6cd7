// Package linalg provides the small dense linear-algebra kernel that the
// rest of the system builds on: real and complex dense matrices, LU
// factorization with partial pivoting, linear solves, and a polynomial
// root finder used by the AWE Padé step.
//
// Everything is written against the standard library only. Matrices are
// dense and row-major. Hot paths factor through AutoLU/AutoCLU
// (sparse.go): a symbolic analysis cached per sparsity pattern, replayed
// as flat index programs, with the dense partial-pivot LU here as the
// fallback when a pivot guard trips. The dense code skips the
// structural zeros of the pivot row and of the factors, which circuit
// matrices keep many of (see DESIGN.md §4).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to the element at row i, column j (the natural operation for
// MNA stamping).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Zero resets every element to 0 without reallocating.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes y = m·x. The result slice is freshly allocated.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecInto computes dst = m·x without allocating; dst must have length
// m.Rows and must not alias x.
func (m *Matrix) MulVecInto(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("linalg: MulVecInto dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .4e ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// LU is an in-place LU factorization with partial pivoting of a square
// real matrix: P·A = L·U. L has implicit unit diagonal.
type LU struct {
	n     int
	lu    []float64 // packed L\U factors, row-major
	pivot []int     // row permutation
	sign  float64   // determinant sign from row swaps
	scale []float64 // equilibration scratch, reused across Factor calls

	// The factors' nonzero structure, indexed after the last row swap:
	// the rows of each L column (in no set order: forward substitution
	// updates each row once per column) and the ascending columns of
	// each U row. Circuit matrices stay sparse through elimination, so
	// the solves walk these lists instead of the full triangles.
	lRow, lPtr []int32
	uCol, uPtr []int32

	rowID, rowPos []int32 // Factor scratch: row identity across swaps
}

// Skipping structural zeros is exact. A skipped term subtracts a
// product p = a·0, and x − p equals x bit for bit for every x except
// x = −0 with p = −0 (−0 − −0 = +0). Factor's targets are never −0: it
// skips only when A holds no −0, and x − y is −0 only when x is. So the
// factors, pivots and singular verdicts match the plain loops bit for
// bit. The solves' targets can be −0 (the AWE moment recursion negates
// C·m, turning empty rows into −0), so a solution's exact zeros may
// differ in sign from the plain loops'; every nonzero value matches.
// A skipped product is ±0 only while the other factor is finite: a
// non-finite multiplier, pivot-row entry or solution value makes 0·Inf
// a NaN that must propagate, so those cases run the plain loops.

// FactorLU computes the LU factorization of the square matrix a. The
// input matrix is not modified. It returns ErrSingular when a pivot
// underflows a scaled tolerance.
func FactorLU(a *Matrix) (*LU, error) {
	f := new(LU)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor recomputes the factorization of a in place, reusing the
// receiver's factor, pivot, and scaling storage. This is the
// reusable-workspace entry point for hot evaluation loops: after the
// first call no further allocation occurs for matrices of the same (or
// smaller) size. On error the receiver's previous factorization is
// invalid.
func (f *LU) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: LU.Factor requires a square matrix")
	}
	n := a.Rows
	f.n = n
	if cap(f.lu) < n*n {
		f.lu = make([]float64, n*n)
		f.pivot = make([]int, n)
		f.scale = make([]float64, n)
		f.lRow = make([]int32, 0, n*(n-1)/2)
		f.uCol = make([]int32, 0, n*(n-1)/2)
		f.lPtr = make([]int32, n+1)
		f.uPtr = make([]int32, n+1)
		f.rowID = make([]int32, n)
		f.rowPos = make([]int32, n)
	}
	f.lu = f.lu[:n*n]
	f.pivot = f.pivot[:n]
	f.scale = f.scale[:n]
	f.sign = 1
	copy(f.lu, a.Data)

	// Row scaling factors for implicit equilibration in pivot choice.
	// The same pass checks whether the structural-zero skips are exact
	// for this matrix: they are unless it holds a −0 or a non-finite
	// value.
	scale := f.scale
	plain := false
	for i := 0; i < n; i++ {
		big := 0.0
		for _, x := range f.lu[i*n : i*n+n] {
			if x == 0 {
				if math.Float64bits(x) != 0 {
					plain = true // −0
				}
				continue
			}
			v := math.Abs(x)
			if v > big {
				big = v
			}
			if !(v <= math.MaxFloat64) {
				plain = true // ±Inf or NaN
			}
		}
		if big == 0 {
			return ErrSingular
		}
		scale[i] = 1 / big
	}

	// The nonzero structure is recorded as elimination goes: a U row is
	// final once it has pivoted, and an L entry is named by the id of
	// its row (rowID follows the swaps) until the last swap is done.
	f.lRow, f.uCol = f.lRow[:0], f.uCol[:0]
	f.lPtr, f.uPtr = f.lPtr[:n+1], f.uPtr[:n+1]
	rowID := f.rowID[:n]
	for i := range rowID {
		rowID[i] = int32(i)
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
			rowID[k], rowID[p] = rowID[p], rowID[k]
			f.sign = -f.sign
		}
		f.pivot[k] = p
		piv := f.lu[k*n+k]
		if math.Abs(piv) < 1e-300 {
			return ErrSingular
		}
		inv := 1 / piv
		rowk := f.lu[k*n : k*n+n]
		f.uPtr[k] = int32(len(f.uCol))
		for j := k + 1; j < n; j++ {
			if rowk[j] != 0 {
				f.uCol = append(f.uCol, int32(j))
			}
		}
		nz := f.uCol[f.uPtr[k]:]
		f.lPtr[k] = int32(len(f.lRow))
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] * inv
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			f.lRow = append(f.lRow, rowID[i])
			if plain || l-l != 0 { // l-l != 0: l is ±Inf or NaN
				rowi := f.lu[i*n+k+1 : i*n+n]
				rowk := f.lu[k*n+k+1 : k*n+n]
				for j := range rowi {
					rowi[j] -= l * rowk[j]
				}
				continue
			}
			rowi := f.lu[i*n : i*n+n]
			for _, j := range nz {
				rowi[j] -= l * rowk[j]
			}
		}
	}
	f.lPtr[n] = int32(len(f.lRow))
	f.uPtr[n] = int32(len(f.uCol))
	rowPos := f.rowPos[:n]
	for pos, id := range rowID {
		rowPos[id] = int32(pos)
	}
	for e, id := range f.lRow {
		f.lRow[e] = rowPos[id]
	}
	return nil
}

// Solve solves A·x = b using the factorization, overwriting nothing; the
// result is freshly allocated.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	x := make([]float64, f.n)
	copy(x, b)
	f.SolveInPlace(x)
	return x
}

// SolveInto solves A·x = b writing x into dst without allocating. dst
// and b must both have length n; dst may alias b.
func (f *LU) SolveInto(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic("linalg: LU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// SolveInPlace solves A·x = b with b overwritten by x. This is the hot
// path for AWE moment recursion, so it avoids all allocation.
func (f *LU) SolveInPlace(b []float64) {
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
		if bk-bk != 0 { // ±Inf or NaN: every L entry counts
			for i := k + 1; i < n; i++ {
				b[i] -= f.lu[i*n+k] * bk
			}
			continue
		}
		for _, i := range f.lRow[f.lPtr[k]:f.lPtr[k+1]] {
			b[i] -= f.lu[int(i)*n+k] * bk
		}
	}
	// Back substitution. Once a solved entry is non-finite, every row
	// above it runs the full U row.
	plain := false
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := f.lu[i*n : i*n+n]
		if plain {
			for j := i + 1; j < n; j++ {
				s -= row[j] * b[j]
			}
		} else {
			for _, j := range f.uCol[f.uPtr[i]:f.uPtr[i+1]] {
				s -= row[j] * b[j]
			}
		}
		x := s / row[i]
		b[i] = x
		if x-x != 0 {
			plain = true
		}
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveLinear is a convenience that factors a and solves a·x = b.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// VecNormInf returns the infinity norm of v.
func VecNormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Vec2Norm returns the Euclidean norm of v.
func Vec2Norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

package linalg

// SetSymbolicMissHook installs fn to see every pattern a symbolic cache
// misses on (nil removes it), for tests outside the package.
func SetSymbolicMissHook(fn func(*Pattern)) { symbolicMissHook = fn }

// SymbolicDiff compares NewSymbolic(p) with the reference analysis in
// sparse_test.go and describes the first difference ("" when none).
func SymbolicDiff(p *Pattern) string { return symDiff(NewSymbolic(p), refNewSymbolic(p)) }

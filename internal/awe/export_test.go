package awe

// SetTestHookFit makes f see every fit FitMomentsInto returns, for the
// replay test of the external test package, and returns a function that
// removes it.
func SetTestHookFit(f func(mu []float64, q int, tf *TF)) (remove func()) {
	testHookFit = f
	return func() { testHookFit = nil }
}

// RefFitDiff is refDiff, for the replay test.
var RefFitDiff = refDiff

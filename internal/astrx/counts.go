package astrx

// Count names one of a run's work counts: an index into Counts. Its
// name, group.count, is the count's attribute on a run's anneal span and
// its entry in the count lines of oblx -stage-sample.
type Count uint8

const (
	// FactorSparse counts the jig engines' sparse replays that passed
	// every pivot guard.
	FactorSparse Count = iota
	// FactorDense counts their dense partial-pivot factorizations (a
	// guard trip or a structurally singular pattern).
	FactorDense
	// FactorSymbolicMisses counts the symbolic analyses run because a
	// scanned pattern was not in the factorizer's cache.
	FactorSymbolicMisses
	// FactorReused counts the factorizations skipped because a jig's
	// stamped (G, C) pair repeated the one its factors came from.
	FactorReused
	// DeviceEvals counts the device evaluations of full runs (cost
	// evaluations, Evaluate), and DeviceReused those that kept a stored
	// operating point because the device's geometry and terminal
	// voltages repeated bit for bit.
	DeviceEvals
	DeviceReused
	// NewtonResiduals counts the Newton problems' residual replays,
	// NewtonJacobians their Jacobians, and NewtonJacobiansReused the
	// Jacobians that reused the replay of the residual before them.
	NewtonResiduals
	NewtonJacobians
	NewtonJacobiansReused
	// NewtonDeviceEvals and NewtonDeviceReused count the device
	// evaluations of bias-only runs (a residual, a Jacobian away from its
	// residual's point, EvaluateBias) like DeviceEvals and DeviceReused.
	NewtonDeviceEvals
	NewtonDeviceReused
	// NewtonProposals counts the Newton moves' proposals, and
	// NewtonProposalsReused those a move answered from its memo because
	// the start vector and the lanes' quarantine flags repeated its
	// previous proposal's bit for bit. The annealer counts them; a
	// workspace leaves them 0.
	NewtonProposals
	NewtonProposalsReused
	// FitFits counts the Padé searches, for the cost function's specs or
	// for a reader of the models (State, MeasureSpec); a model kept
	// because its jig's factors repeated is not fitted again. FitAttempts
	// counts the orders they fitted, a singular Hankel system included,
	// and FitDeferred the orders deferred because they cannot be stable
	// and never fitted.
	FitFits
	FitAttempts
	FitDeferred
	// Each fit ends in exactly one of four outcomes: a stable order that
	// reproduces every moment, only unstable such orders, the
	// best-scoring order because none reproduced every moment, or the
	// constant model because no order fitted at all.
	FitValidatedStable
	FitValidatedUnstable
	FitUnvalidated
	FitConstant
	// FitUnread counts, per run that reached the specs, each transfer
	// function whose model a spec could read that no spec read: the fits
	// the lazy rule skipped (a gain below unity leaves ugf and
	// phase_margin nothing to read).
	FitUnread

	// NumCounts is the number of counts in the record.
	NumCounts = int(FitUnread) + 1
)

var countNames = [NumCounts]string{
	"factor.sparse", "factor.dense", "factor.symbolic_misses", "factor.reused",
	"device.evals", "device.reused",
	"newton.residuals", "newton.jacobians", "newton.jacobians_reused",
	"newton.device_evals", "newton.device_reused",
	"newton.proposals", "newton.proposals_reused",
	"fit.fits", "fit.attempts", "fit.deferred",
	"fit.validated_stable", "fit.validated_unstable", "fit.unvalidated", "fit.constant",
	"fit.unread",
}

func (c Count) String() string {
	if int(c) < NumCounts {
		return countNames[c]
	}
	return "unknown"
}

// Counts is one record of a run's work, indexed by Count: what the
// factorizer, the device models, the Newton problems and moves, and the
// Padé search did. A workspace keeps one (EvalWorkspace.Counts), and a
// run sums its lanes' into oblx.Result.Counts.
type Counts [NumCounts]uint64

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	for i, v := range o {
		c[i] += v
	}
}

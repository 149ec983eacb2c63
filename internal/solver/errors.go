package solver

import (
	"errors"
	"fmt"
)

// Sentinel causes for an Unknown verdict. Check returns one of these
// (possibly wrapped) alongside Unknown so callers can distinguish "the
// solver proved nothing within its resources" from other outcomes and
// pick a degradation strategy (retry with a bigger budget, concretize,
// or treat conservatively).
var (
	// ErrBudgetExhausted: the CDCL search hit Options.MaxConflicts.
	ErrBudgetExhausted = errors.New("solver: conflict budget exhausted")
	// ErrDeadlineExceeded: the query ran past Options.QueryDeadline.
	ErrDeadlineExceeded = errors.New("solver: query deadline exceeded")
	// ErrInjected: a fault-injection hook forced the Unknown.
	ErrInjected = errors.New("solver: injected fault")
)

// InternalError reports a broken solver-internal invariant (a bit-blast
// width mismatch, an expression kind the blaster cannot lower, a failed
// CDCL enqueue). The exported entry points convert these to an Unknown
// verdict instead of panicking, so one bad query cannot take down the
// engine; see the package comment in sat.go for the panic policy.
type InternalError struct {
	Msg string
}

func (e *InternalError) Error() string { return "solver: internal error: " + e.Msg }

// throwInternal raises an *InternalError through panic; batchSAT
// recovers it at the query boundary.
func throwInternal(format string, args ...any) {
	panic(&InternalError{Msg: fmt.Sprintf(format, args...)})
}

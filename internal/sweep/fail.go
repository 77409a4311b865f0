package sweep

import (
	"errors"
	"fmt"
)

// ErrCellPanic is the sentinel wrapped by CellErrors built from a recovered
// worker panic: errors.Is(err, ErrCellPanic) distinguishes a crashed cell
// from one that returned an ordinary error.
var ErrCellPanic = errors.New("sweep: cell panicked")

// CellError reports a sweep cell that panicked: Run recovers the panic
// into a CellError carrying the cell index, an Err wrapping ErrCellPanic
// and the goroutine stack captured at the recovery site, so a crashed cell
// fails the sweep with a typed error instead of taking down the process.
// CellError implements Unwrap, so errors.Is/As reach the underlying
// failure.
type CellError struct {
	// Cell is the cell's index in the sweep grid.
	Cell int
	// Err is the underlying failure.
	Err error
	// Stack is the worker goroutine's stack at the recovery site.
	Stack []byte
}

// Error implements error.
func (e *CellError) Error() string {
	if len(e.Stack) > 0 {
		return fmt.Sprintf("sweep: cell %d: %v\n%s", e.Cell, e.Err, e.Stack)
	}
	return fmt.Sprintf("sweep: cell %d: %v", e.Cell, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is and errors.As.
func (e *CellError) Unwrap() error { return e.Err }

package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestPanicRecoveredIntoCellError: a panicking cell fails the sweep with a
// typed CellError wrapping ErrCellPanic, with the stack attached. Run is
// fail-fast only; the subtest keeps the keepGoing=false name it had when a
// keep-going mode stood beside it, so the case stays comparable by name.
func TestPanicRecoveredIntoCellError(t *testing.T) {
	t.Run("keepGoing=false", func(t *testing.T) {
		_, err := Run(context.Background(), 3, Options{Parallelism: 2},
			func(_ context.Context, i int) (int, error) {
				if i == 1 {
					panic("kaboom")
				}
				return i, nil
			})
		if !errors.Is(err, ErrCellPanic) {
			t.Fatalf("errors.Is(err, ErrCellPanic) = false for %v", err)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("errors.As(*CellError) = false for %v", err)
		}
		if ce.Cell != 1 {
			t.Errorf("Cell = %d, want 1", ce.Cell)
		}
		if len(ce.Stack) == 0 {
			t.Error("panic CellError has no stack")
		}
		if !strings.Contains(ce.Error(), "kaboom") {
			t.Errorf("Error() = %q, want the panic value", ce.Error())
		}
	})
}

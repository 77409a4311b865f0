package serve

import (
	"fmt"
	"net/http"
)

// Code classifies a job failure for clients. Every error response carries
// exactly one code, and the code alone determines the HTTP status and
// whether resubmitting can help — the server's failure contract, pinned by
// the chaos suite and documented in the README status table.
type Code string

const (
	// CodeBadRequest marks a malformed or invalid job spec (400).
	CodeBadRequest Code = "bad_request"
	// CodeUnknown marks a spec naming an unknown experiment, workload or
	// protocol (404).
	CodeUnknown Code = "unknown_target"
	// CodeOverload marks an admission rejection — the job queue is full
	// or the tenant is at its in-flight cap (429 + Retry-After).
	CodeOverload Code = "overloaded"
	// CodeDraining marks a submission that arrived after the server began
	// its graceful drain (503 + Retry-After).
	CodeDraining Code = "draining"
	// CodeTimeout marks a job that exceeded its deadline (504).
	CodeTimeout Code = "deadline_exceeded"
	// CodeCanceled marks a job canceled before completing — the client
	// went away or the drain deadline forced cancellation (503).
	CodeCanceled Code = "canceled"
	// CodePanic marks a job whose replay panicked; the panic was
	// recovered into this typed error and the worker survived (500).
	CodePanic Code = "panic"
	// CodeFault marks a job whose trace stream failed with an injected
	// fault (502) — distinct from a real internal failure.
	CodeFault Code = "fault"
	// CodeInternal marks any other server-side failure (500).
	CodeInternal Code = "internal"
)

// JobError is the typed error a failed job surfaces: the classification
// code, the job's identity and the underlying cause. It is the serving
// layer's CellError analogue — chaos tests match the wrapped cause with
// errors.Is/As through it.
type JobError struct {
	// Code classifies the failure and drives HTTPStatus and Retryable.
	Code Code
	// Job is the server-assigned job id (0 for admission rejections,
	// which never became jobs).
	Job uint64
	// Tenant is the submitting tenant.
	Tenant string
	// Err is the underlying cause; may be nil for pure admission
	// rejections.
	Err error
}

func (e *JobError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("serve: job %d (%s): %s", e.Job, e.Tenant, e.Code)
	}
	return fmt.Sprintf("serve: job %d (%s): %s: %v", e.Job, e.Tenant, e.Code, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// HTTPStatus maps the code onto the response status.
func (e *JobError) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknown:
		return http.StatusNotFound
	case CodeOverload:
		return http.StatusTooManyRequests
	case CodeDraining, CodeCanceled:
		return http.StatusServiceUnavailable
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeFault:
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// Retryable reports whether resubmitting the same job can succeed: true
// for load-shedding, drain, cancellation, injected faults and timeouts;
// false for client errors and deterministic failures (panics).
func (e *JobError) Retryable() bool {
	switch e.Code {
	case CodeOverload, CodeDraining, CodeFault, CodeTimeout, CodeCanceled:
		return true
	}
	return false
}

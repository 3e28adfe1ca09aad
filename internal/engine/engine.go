// Package engine defines the machine-neutral execution seam between the
// two simulated Prolog engines (the PSI firmware interpreter in
// internal/core and the DEC-10 compiled-code baseline in internal/dec10)
// and everything that drives them: the harness, the CLIs and any future
// serving layer.
//
// The seam is deliberately small: a Session is a resumable search that
// advances in bounded steps, opened on a machine and a precompiled query
// by core.NewSession or dec10.NewSession. Step(budget) runs at most
// ~budget machine steps (microcycles on the PSI, cost units on the
// DEC-10) and reports a Status; Next(ctx) drives Step in
// CheckEvery-sized slices, polling the context between slices, so
// cancellation and deadlines are honoured with bounded overhead instead
// of a per-cycle check.
//
// All abnormal terminations map onto a small typed taxonomy —
// ErrStepLimit, ErrCanceled, ErrDeadline, ErrMalformed, ErrFault,
// ErrExpired — so
// callers branch on errors.Is instead of matching message strings, and
// the CLIs can translate every class into a distinct exit code. ErrFault
// is the containment class: any panic crossing a Session's Step
// boundary (an injected fault detected by the simulated hardware, or an
// unexpected internal panic) is recovered and classified instead of
// crashing the process.
package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/term"
)

// Status reports the outcome of advancing a Session.
type Status int

const (
	// Solution: the search produced an answer; Bindings holds it.
	Solution Status = iota
	// Yielded: the step budget ran out with the search still in flight;
	// call Step or Next again to resume.
	Yielded
	// Exhausted: the search space is exhausted; no (further) answer.
	Exhausted
	// Failed: the run aborted with an error (see the returned error).
	Failed
)

// String names the status for reports and logs.
func (s Status) String() string {
	switch s {
	case Solution:
		return "solution"
	case Yielded:
		return "yielded"
	case Exhausted:
		return "exhausted"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// The error taxonomy. Machine errors unwrap to exactly one of these
// sentinels, so errors.Is classifies any engine failure.
var (
	// ErrStepLimit: the run exceeded its configured step bound.
	ErrStepLimit = errors.New("step limit exceeded")
	// ErrCanceled: the driving context was canceled.
	ErrCanceled = errors.New("run canceled")
	// ErrDeadline: the driving context's deadline passed.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrMalformed: a malformed execution — type errors in builtins,
	// illegal instructions, undefined predicates reached via call/1.
	ErrMalformed = errors.New("malformed execution")
	// ErrFault: a contained machine fault — an injected fault detected
	// by the simulated hardware's parity/tag/bounds checking, or an
	// internal panic recovered at the session boundary. The concrete
	// error is a *FaultError carrying site, step and stack.
	ErrFault = errors.New("machine fault")
	// ErrExpired: the run's deadline had already passed before any
	// machine work started — the admission layer shed the job instead of
	// burning a worker on an answer nobody can use. Unlike ErrDeadline
	// (the budget ran out mid-run) an expired run has no partial
	// accounting: it never touched a machine.
	ErrExpired = errors.New("deadline expired before execution")
)

// FaultError is the classified form of a contained machine fault. Every
// panic that crosses a Session's Step boundary — a fault.Check raised by
// the injection layer or an unexpected runtime panic inside the
// simulator — is converted into one of these instead of crashing the
// process. It unwraps to ErrFault for errors.Is classification.
type FaultError struct {
	// Site names where the fault was detected: an injection site
	// ("mem", "cache", "wf", "trace") or "panic" for a recovered
	// internal panic.
	Site string
	// Step is the machine step count at containment.
	Step int64
	// Msg describes the fault. For injected faults it is deterministic
	// for a given plan and workload.
	Msg string
	// Stack is the Go stack captured at the recovery point (diagnostic
	// only; never part of deterministic output).
	Stack string
}

// Error renders the fault without the stack, so aggregated error output
// stays deterministic and single-line.
func (e *FaultError) Error() string {
	return fmt.Sprintf("fault at %s (step %d): %s", e.Site, e.Step, e.Msg)
}

// Unwrap classifies the fault under the engine taxonomy.
func (e *FaultError) Unwrap() error { return ErrFault }

// CheckEvery is the step budget Next grants between context polls:
// cancellation latency is bounded by ~64K machine steps rather than
// paying a check on every cycle.
const CheckEvery = 1 << 16

// Session is one resumable query execution on a machine.
//
// The step budget is a soft boundary: the machine only yields between
// instruction dispatches, so a slice may overshoot by the cost of the
// instruction (and of any nested sub-execution, e.g. findall/3) in
// flight when the budget ran out.
type Session interface {
	// Step advances the search by about budget machine steps
	// (budget <= 0 removes the bound). After a Solution, calling Step
	// again searches for the next answer.
	Step(budget int64) (Status, error)
	// Next runs until the next terminal status, polling ctx every
	// CheckEvery steps. A nil or non-cancelable context runs unsliced.
	Next(ctx context.Context) (Status, error)
	// Bindings returns the current answer after a Solution status.
	Bindings() map[string]*term.Term
}

// Accounting modes, as reported in run reports. The PSI core reports
// ModeExact while a per-cycle tap (trace, fault injector) receives
// every cycle and ModeFast otherwise; statistics are identical either
// way. Engines without per-cycle taps report ModeExact.
const (
	ModeExact = "exact"
	ModeFast  = "fast"
)

// ParseMode validates a psid job spec's engine field ("" defaults to
// exact).
func ParseMode(s string) (string, error) {
	switch s {
	case "", ModeExact:
		return ModeExact, nil
	case ModeFast:
		return ModeFast, nil
	}
	return "", fmt.Errorf("engine: unknown mode %q (want %q or %q)", s, ModeExact, ModeFast)
}

// Drive implements Session.Next over a Step function: it advances in
// CheckEvery-step slices and polls ctx between slices. With a nil or
// non-cancelable context (Done() == nil, e.g. context.Background()) it
// issues one unbounded Step — the zero-overhead path the evaluation
// harness runs on.
func Drive(ctx context.Context, step func(budget int64) (Status, error)) (Status, error) {
	if ctx == nil || ctx.Done() == nil {
		return step(0)
	}
	for {
		if err := ctx.Err(); err != nil {
			return Failed, CtxError(err)
		}
		st, err := step(CheckEvery)
		if st != Yielded || err != nil {
			return st, err
		}
	}
}

// CtxError maps a context error onto the taxonomy (ErrDeadline or
// ErrCanceled), preserving the original text.
func CtxError(err error) error {
	class := ErrCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		class = ErrDeadline
	}
	return fmt.Errorf("%w (%v)", class, err)
}

// ClassName names an error's taxonomy class for CLI stderr messages.
func ClassName(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrStepLimit):
		return "step-limit"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrFault):
		return "fault"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrExpired):
		return "expired"
	default:
		return "error"
	}
}

// Classes enumerates every error-class name of the taxonomy, in
// exit-code order: the seven names ClassName can return plus
// "degraded", the evaluation-level class that has an exit code
// (ExitDegraded) but no single error value. Any layer that maps classes
// onto another namespace — the CLI exit codes here, the HTTP statuses in
// internal/serve — is tested exhaustively against this list, so adding a
// class to the taxonomy without extending every mapping fails a test
// instead of silently falling through to a default.
func Classes() []string {
	return []string{
		"ok",         // ExitOK
		"error",      // ExitFailure (generic: parse errors, I/O, failed query)
		"malformed",  // ExitMalformed
		"step-limit", // ExitStepLimit
		"deadline",   // ExitDeadline
		"canceled",   // ExitCanceled
		"fault",      // ExitFault
		"degraded",   // ExitDegraded
		"expired",    // ExitExpired
	}
}

// Exit codes: each error class gets a distinct nonzero code so scripts
// and supervisors can branch on how a run ended.
const (
	ExitOK        = 0
	ExitFailure   = 1 // generic failure (parse errors, I/O, query failed)
	ExitUsage     = 2 // bad command line
	ExitMalformed = 3
	ExitStepLimit = 4
	ExitDeadline  = 5
	ExitCanceled  = 6
	// ExitFault: a contained machine fault (injected or recovered
	// panic) aborted the run.
	ExitFault = 7
	// ExitDegraded: a keep-going evaluation completed, but one or more
	// workloads failed and were reported as degraded.
	ExitDegraded = 8
	// ExitExpired: the deadline passed before any machine work started
	// (admission-side shedding; the serving layer's 504).
	ExitExpired = 9
)

// ExitCode maps an error onto the CLI exit-code contract.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrStepLimit):
		return ExitStepLimit
	case errors.Is(err, ErrDeadline):
		return ExitDeadline
	case errors.Is(err, ErrCanceled):
		return ExitCanceled
	case errors.Is(err, ErrFault):
		return ExitFault
	case errors.Is(err, ErrMalformed):
		return ExitMalformed
	case errors.Is(err, ErrExpired):
		return ExitExpired
	default:
		return ExitFailure
	}
}

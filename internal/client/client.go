// Package client is the typed Go client for the psi-serve-job/v1
// protocol: it POSTs job specs to a psid daemon and applies the retry
// discipline a production evaluation service expects from its callers —
// deterministic seeded jittered exponential backoff, honoring the
// server's Retry-After hint, a per-job attempt budget, and a circuit
// breaker that stops hammering a daemon that is clearly down.
//
// The package sits below internal/serve in the dependency order (it
// knows only the wire protocol: the /v1/solve path, the X-Psi-* headers
// and which statuses signal "try again"), so the serving layer's load
// generator and soak harness can drive the daemon through it without an
// import cycle.
//
// Retryability is deliberately narrow. A transport error, a 429
// (saturated) and a 503 (draining) mean the daemon could not take the
// job — the same spec may well succeed in a moment. Everything else is
// a served answer: a 500 contained fault or a 422 malformed program is
// deterministic for the spec and would only recur, and a 504 expired
// job missed a deadline that retrying cannot resurrect.
//
// The circuit breaker is the classic three-state machine:
//
//	closed ──(Threshold consecutive retryable failures)──> open
//	open ──(Cooldown elapses)──> half-open
//	half-open ──(probe succeeds)──> closed
//	half-open ──(probe fails)──> open
//
// While open, Solve fails fast with ErrBreakerOpen (counted as a shed
// request) instead of queueing work a dead daemon will never answer;
// half-open admits exactly one probe request to test the waters.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// SolvePath is the job endpoint of the psi-serve-job/v1 protocol.
const SolvePath = "/v1/solve"

// ErrBreakerOpen fails a request fast because the circuit breaker is
// open: recent requests all failed at the transport or admission layer,
// and the cooldown has not elapsed yet.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrAttemptsExhausted wraps the last retryable failure once the
// per-job attempt budget runs out.
var ErrAttemptsExhausted = errors.New("client: attempt budget exhausted")

// Options tunes the client. The zero value is usable; see New for the
// defaults.
type Options struct {
	// HTTP is the transport (default: a client with a 5-minute timeout).
	HTTP *http.Client
	// MaxAttempts bounds the tries per job, first attempt included
	// (default 4). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms);
	// each further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff (default 5s). A larger
	// server-sent Retry-After still wins: the server knows its queue.
	MaxDelay time.Duration
	// Seed fixes the jitter stream, so a load run's delay sequence is
	// reproducible for a given seed and request order.
	Seed uint64
	// BreakerThreshold opens the circuit after this many consecutive
	// retryable failures (default 8; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before
	// admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// Sleep waits out a backoff delay (default: a timer honoring ctx).
	// Tests inject a recorder here to assert the delay sequence without
	// waiting it out.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Stats counts what the retry layer did, for the soak report's retry
// block. Snapshot with Client.Stats.
type Stats struct {
	// Attempts are HTTP requests actually sent (retries included).
	Attempts int64 `json:"attempts"`
	// Retries are re-sends after a retryable failure.
	Retries int64 `json:"retries"`
	// Shed are jobs abandoned without a served response: breaker
	// fast-fails plus attempt budgets running out.
	Shed int64 `json:"shed"`
	// BreakerOpens counts closed→open (and half-open→open) transitions.
	BreakerOpens int64 `json:"breaker_opens"`
	// BreakerProbes counts half-open probe requests admitted.
	BreakerProbes int64 `json:"breaker_probes"`
	// RetryAfterHonored counts backoffs stretched by a server Retry-After.
	RetryAfterHonored int64 `json:"retry_after_honored"`
}

// Add accumulates another snapshot (the load generator sums one client
// per concurrent worker).
func (s *Stats) Add(o Stats) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Shed += o.Shed
	s.BreakerOpens += o.BreakerOpens
	s.BreakerProbes += o.BreakerProbes
	s.RetryAfterHonored += o.RetryAfterHonored
}

// Result is one served response: the final HTTP status, the termination
// class the daemon stamped on it (X-Psi-Termination for executed jobs,
// X-Psi-Class for admission rejections), the body, and how many
// attempts it took.
type Result struct {
	Status   int
	Class    string
	Body     []byte
	Attempts int
}

// breaker states.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// Client is a retrying psi-serve-job/v1 client. Safe for concurrent
// use; the breaker and jitter stream are shared across goroutines (the
// delay sequence is deterministic only under sequential use).
type Client struct {
	base string
	opts Options

	mu        sync.Mutex
	rng       uint64 // splitmix64 jitter state
	state     int
	fails     int       // consecutive retryable failures while closed
	openUntil time.Time // when the open circuit admits a probe
	probing   bool      // a half-open probe is in flight

	attempts          int64
	retries           int64
	shed              int64
	breakerOpens      int64
	breakerProbes     int64
	retryAfterHonored int64
}

// New builds a client for the daemon at base (e.g.
// "http://127.0.0.1:8131"), filling zero options with defaults.
func New(base string, opts Options) *Client {
	if opts.HTTP == nil {
		opts.HTTP = &http.Client{Timeout: 5 * time.Minute}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 50 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 5 * time.Second
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 8
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = sleepCtx
	}
	return &Client{base: base, opts: opts, rng: opts.Seed}
}

// Stats snapshots the retry/breaker counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Attempts:          c.attempts,
		Retries:           c.retries,
		Shed:              c.shed,
		BreakerOpens:      c.breakerOpens,
		BreakerProbes:     c.breakerProbes,
		RetryAfterHonored: c.retryAfterHonored,
	}
}

// Solve POSTs one job spec (already-marshalled psi-serve-job/v1 JSON)
// and retries retryable failures under the attempt budget. A non-nil
// Result is a served response — its Status may still be an error status
// (422, 500, …); classifying those is the caller's business. A nil
// Result means the job was never served: the breaker was open, the
// attempt budget ran out, or the context ended.
func (c *Client) Solve(ctx context.Context, spec []byte) (*Result, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		probe, err := c.admit()
		if err != nil {
			c.countShed()
			return nil, err
		}
		res, retryable, retryAfter, err := c.post(ctx, spec)
		c.settle(probe, err == nil && !retryable)
		if err == nil && !retryable {
			res.Attempts = attempt
			return res, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("status %d (%s)", res.Status, res.Class)
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= c.opts.MaxAttempts {
			c.countShed()
			return nil, fmt.Errorf("%w after %d attempts: %v", ErrAttemptsExhausted, attempt, lastErr)
		}
		delay := c.backoff(attempt, retryAfter)
		c.mu.Lock()
		c.retries++
		c.mu.Unlock()
		if err := c.opts.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
}

// post sends one attempt and classifies the outcome: a served Result,
// whether it is retryable, and any Retry-After hint in seconds.
func (c *Client) post(ctx context.Context, spec []byte) (res *Result, retryable bool, retryAfter time.Duration, err error) {
	c.mu.Lock()
	c.attempts++
	c.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+SolvePath, bytes.NewReader(spec))
	if err != nil {
		return nil, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.HTTP.Do(req)
	if err != nil {
		return nil, true, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		// A cut body mid-read is a transport failure, not a served answer.
		return nil, true, 0, err
	}
	class := resp.Header.Get("X-Psi-Termination")
	if class == "" {
		class = resp.Header.Get("X-Psi-Class")
	}
	res = &Result{Status: resp.StatusCode, Class: class, Body: body}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
			retryAfter = time.Duration(s) * time.Second
		}
		return res, true, retryAfter, nil
	}
	return res, false, 0, nil
}

// admit gates one attempt through the breaker, reporting whether it is
// a half-open probe.
func (c *Client) admit() (probe bool, err error) {
	if c.opts.BreakerThreshold < 0 {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case stateOpen:
		if time.Now().Before(c.openUntil) {
			return false, fmt.Errorf("%w (until %s)", ErrBreakerOpen, c.openUntil.Format(time.RFC3339))
		}
		c.state = stateHalfOpen
		fallthrough
	case stateHalfOpen:
		if c.probing {
			return false, fmt.Errorf("%w (probe in flight)", ErrBreakerOpen)
		}
		c.probing = true
		c.breakerProbes++
		return true, nil
	}
	return false, nil
}

// settle records an attempt's outcome in the breaker.
func (c *Client) settle(probe, ok bool) {
	if c.opts.BreakerThreshold < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
	}
	if ok {
		c.fails = 0
		c.state = stateClosed
		return
	}
	if c.state == stateHalfOpen {
		// The probe failed: reopen for another cooldown.
		c.open()
		return
	}
	c.fails++
	if c.fails >= c.opts.BreakerThreshold {
		c.open()
	}
}

// open transitions to the open state (mu held).
func (c *Client) open() {
	c.state = stateOpen
	c.fails = 0
	c.openUntil = time.Now().Add(c.opts.BreakerCooldown)
	c.breakerOpens++
}

func (c *Client) countShed() {
	c.mu.Lock()
	c.shed++
	c.mu.Unlock()
}

// backoff computes the delay before retry number attempt: jittered
// exponential (half fixed, half drawn from the seeded stream), capped
// at MaxDelay — unless the server's Retry-After asks for more, which
// wins because the server can see its own queue.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.opts.BaseDelay << (attempt - 1)
	if d > c.opts.MaxDelay || d <= 0 {
		d = c.opts.MaxDelay
	}
	c.mu.Lock()
	c.rng = splitmix64(c.rng)
	jittered := d/2 + time.Duration(c.rng%uint64(d/2+1))
	if retryAfter > jittered {
		jittered = retryAfter
		c.retryAfterHonored++
	}
	c.mu.Unlock()
	return jittered
}

// splitmix64 is the same deterministic PRNG step the fault and load
// layers use; no global state, identical on every platform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sleepCtx is the default Sleep: a timer that aborts when ctx does.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	if ctx == nil {
		<-t.C
		return nil
	}
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Package faults is the repository's failure substrate: a deterministic
// retry policy (bounded attempts, capped exponential backoff, seeded jitter),
// context-aware sleeping, and an injectable clock so every flaky-network
// scenario the measurement must survive — dead AIA URIs, stalled handshakes,
// transient accept errors — can be provoked and re-run in tests without a
// single real sleep.
//
// The paper's substrate is the hostile live Internet (88 chains with dead
// AIA URIs in §4.3, two vantages partly to survive transient scan loss);
// this package is how the loopback reproduction stops assuming a polite
// network.
package faults

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// Clock abstracts time for retry and throttling code. Production code uses
// Wall(); tests inject a *FakeClock so backoff schedules are asserted, not
// waited out.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	return Sleep(ctx, d)
}

// Wall returns the real-time clock.
func Wall() Clock { return wallClock{} }

// Sleep is a context-aware time.Sleep: it returns nil after d has elapsed,
// or ctx.Err() as soon as the context is cancelled. Unlike time.Sleep it
// never strands a goroutine sleeping off debt for a cancelled operation.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// FakeClock is a deterministic Clock for tests: Sleep advances the fake
// time instantly and records the requested duration instead of blocking.
// Safe for concurrent use.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

// NewFakeClock creates a fake clock starting at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the fake time forward without recording a sleep.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Sleep records d, advances the fake time by d and returns immediately. A
// cancelled context still wins: nothing is recorded and ctx.Err() is
// returned, mirroring the wall clock's contract.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return nil
}

// Sleeps returns a copy of every duration passed to Sleep, in order.
func (c *FakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// SleptTotal returns the sum of all recorded sleeps.
func (c *FakeClock) SleptTotal() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total time.Duration
	for _, d := range c.sleeps {
		total += d
	}
	return total
}

// Policy is a retry policy: how many times to attempt an operation, how long
// to back off between attempts, and which errors are worth retrying. The
// zero value means "one attempt, no retry", so embedding a Policy in a
// config struct costs callers nothing until they opt in.
type Policy struct {
	// Attempts is the total number of tries (first attempt included).
	// Values <= 1 mean a single attempt.
	Attempts int
	// BaseDelay is the backoff before the second attempt (default 50ms
	// when retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized away, in [0,1]. A
	// delay d becomes d - uniform(0, d*Jitter), derived deterministically
	// from Seed and the attempt number.
	Jitter float64
	// Seed drives the jitter; two policies with equal fields produce
	// identical backoff schedules.
	Seed int64
	// Retryable classifies errors; nil means IsTransient.
	Retryable func(error) bool
	// Clock is the time source; nil means the wall clock.
	Clock Clock
}

// MaxAttempts returns the effective attempt budget (always >= 1).
func (p Policy) MaxAttempts() int {
	if p.Attempts <= 1 {
		return 1
	}
	return p.Attempts
}

func (p Policy) clock() Clock {
	if p.Clock != nil {
		return p.Clock
	}
	return Wall()
}

func (p Policy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return IsTransient(err)
}

// Delay returns the backoff after the given 0-based failed attempt:
// BaseDelay * 2^attempt, capped at MaxDelay, minus seeded jitter. It is a
// pure function of the policy and the attempt number.
func (p Policy) Delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		// splitmix64 of (Seed, attempt) -> uniform fraction in [0,1).
		frac := float64(splitmix64(uint64(p.Seed)+uint64(attempt)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
		d -= d * j * frac
	}
	return time.Duration(d)
}

// Do runs op up to MaxAttempts times, sleeping Delay(i) between attempts on
// the policy's clock. It stops early when op succeeds, when the error is not
// retryable, or when ctx is cancelled (including mid-backoff); the last
// error from op is returned, never the bare context error from the sleep —
// callers keep the underlying cause.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.MaxAttempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		lastErr = op(ctx)
		if lastErr == nil {
			return nil
		}
		if attempt+1 >= attempts || !p.retryable(lastErr) || ctx.Err() != nil {
			return lastErr
		}
		if err := p.clock().Sleep(ctx, p.Delay(attempt)); err != nil {
			return lastErr
		}
	}
	return lastErr
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// IsTransient reports whether err looks like a transient network failure
// worth retrying: timeouts, refused/reset/aborted connections, broken pipes,
// and abrupt EOFs (a peer that accepted and then reset mid-handshake).
// Context cancellation is never transient — the caller asked to stop.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// A per-attempt deadline; a fresh attempt gets a fresh one.
		return true
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	for _, target := range []error{
		syscall.ECONNREFUSED, syscall.ECONNRESET, syscall.ECONNABORTED,
		syscall.EPIPE, syscall.ETIMEDOUT, syscall.EHOSTUNREACH,
		syscall.ENETUNREACH,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	return false
}

// IsTemporaryAccept reports whether a net.Listener.Accept error is worth
// retrying with backoff rather than abandoning the listener: timeouts and
// resource-exhaustion errors (EMFILE/ENFILE — the classic mid-study killer),
// plus connections aborted before accept. A closed listener is never
// temporary.
func IsTemporaryAccept(err error) bool {
	if err == nil || errors.Is(err, net.ErrClosed) {
		return false
	}
	for _, target := range []error{
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM,
		syscall.ECONNABORTED, syscall.EINTR,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	// Some wrapped listeners only expose the legacy Temporary signal.
	var terr interface{ Temporary() bool }
	if errors.As(err, &terr) {
		return terr.Temporary()
	}
	return false
}

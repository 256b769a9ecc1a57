package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

var testEpoch = time.Date(2026, time.January, 1, 0, 0, 0, 0, time.UTC)

func TestDelayCappedExponential(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := p.Delay(attempt); got != w {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
}

func TestDelayDefaults(t *testing.T) {
	var p Policy
	if got := p.Delay(0); got != 50*time.Millisecond {
		t.Errorf("default base delay = %v", got)
	}
	if got := p.Delay(20); got != 2*time.Second {
		t.Errorf("default cap = %v", got)
	}
	if p.MaxAttempts() != 1 {
		t.Errorf("zero policy attempts = %d, want 1", p.MaxAttempts())
	}
}

func TestDelayJitterSeededAndBounded(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5, Seed: 7}
	q := p // identical fields -> identical schedule
	for attempt := 0; attempt < 6; attempt++ {
		d := p.Delay(attempt)
		if d != q.Delay(attempt) {
			t.Fatalf("jitter not deterministic at attempt %d", attempt)
		}
		full := Policy{BaseDelay: p.BaseDelay, MaxDelay: p.MaxDelay}.Delay(attempt)
		if d > full || d < full/2 {
			t.Errorf("Delay(%d) = %v outside [%v, %v]", attempt, d, full/2, full)
		}
	}
	other := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5, Seed: 8}
	same := true
	for attempt := 0; attempt < 6; attempt++ {
		if other.Delay(attempt) != p.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	clock := NewFakeClock(testEpoch)
	p := Policy{Attempts: 5, BaseDelay: 10 * time.Millisecond, Clock: clock}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls <= 2 {
			return fmt.Errorf("wrap: %w", syscall.ECONNRESET)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != p.Delay(0) || sleeps[1] != p.Delay(1) {
		t.Errorf("sleeps = %v, want the policy's first two delays", sleeps)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	clock := NewFakeClock(testEpoch)
	p := Policy{Attempts: 5, Clock: clock}
	calls := 0
	permanent := errors.New("bad certificate")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || calls != 1 {
		t.Errorf("err = %v, calls = %d; want one non-retried attempt", err, calls)
	}
	if len(clock.Sleeps()) != 0 {
		t.Errorf("slept %v for a permanent error", clock.Sleeps())
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	clock := NewFakeClock(testEpoch)
	p := Policy{Attempts: 3, Clock: clock}
	calls := 0
	transient := fmt.Errorf("still down: %w", syscall.ECONNREFUSED)
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return transient
	})
	if !errors.Is(err, syscall.ECONNREFUSED) || calls != 3 {
		t.Errorf("err = %v, calls = %d", err, calls)
	}
	if len(clock.Sleeps()) != 2 {
		t.Errorf("sleeps = %v, want 2", clock.Sleeps())
	}
}

func TestDoRespectsCancellation(t *testing.T) {
	clock := NewFakeClock(testEpoch)
	p := Policy{Attempts: 10, Clock: clock}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	transient := fmt.Errorf("flaky: %w", syscall.ECONNRESET)
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return transient
	})
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("Do returned %v, want the operation's last error", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want cancellation to stop the loop at 2", calls)
	}
}

func TestSleepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep on cancelled ctx = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("cancelled Sleep blocked %v", elapsed)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Errorf("zero Sleep = %v", err)
	}
}

func TestFakeClock(t *testing.T) {
	clock := NewFakeClock(testEpoch)
	if !clock.Now().Equal(testEpoch) {
		t.Error("start time wrong")
	}
	if err := clock.Sleep(context.Background(), time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if got := clock.Now(); !got.Equal(testEpoch.Add(time.Minute + time.Second)) {
		t.Errorf("Now = %v", got)
	}
	if clock.SleptTotal() != time.Minute {
		t.Errorf("SleptTotal = %v", clock.SleptTotal())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := clock.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("fake Sleep on cancelled ctx = %v", err)
	}
	if clock.SleptTotal() != time.Minute {
		t.Error("cancelled sleep was recorded")
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("scan: %w", context.Canceled), false},
		{context.DeadlineExceeded, true},
		{syscall.ECONNREFUSED, true},
		{fmt.Errorf("dial: %w", syscall.ECONNRESET), true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("x509: certificate signed by unknown authority"), false},
		{&net.OpError{Op: "dial", Err: &timeoutErr{}}, true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestIsTemporaryAccept(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{net.ErrClosed, false},
		{fmt.Errorf("accept: %w", net.ErrClosed), false},
		{syscall.EMFILE, true},
		{fmt.Errorf("accept: %w", syscall.ENFILE), true},
		{syscall.ECONNABORTED, true},
		{&timeoutErr{}, true},
		{errors.New("permanent listener damage"), false},
	}
	for _, c := range cases {
		if got := IsTemporaryAccept(c.err); got != c.want {
			t.Errorf("IsTemporaryAccept(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// timeoutErr implements net.Error with Timeout()=true.
type timeoutErr struct{}

func (*timeoutErr) Error() string   { return "i/o timeout" }
func (*timeoutErr) Timeout() bool   { return true }
func (*timeoutErr) Temporary() bool { return true }

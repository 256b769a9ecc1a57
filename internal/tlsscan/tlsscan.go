// Package tlsscan is the repository's ZGrab2 equivalent: it performs TLS
// handshakes against targets and records the raw certificate list from the
// Certificate message, without validating it (validation is exactly what the
// rest of the repository studies). It supports bounded concurrency, a
// throughput cap mirroring the paper's 500 KB/s ethics limit, and
// multi-vantage result merging.
package tlsscan

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
)

// Target is one scan work item.
type Target struct {
	// Addr is the host:port to connect to.
	Addr string
	// Domain is the SNI name and the label under which results are keyed.
	Domain string
}

// ErrorCause classifies why a scan failed — the distinction between
// transport loss (dial, handshake) and a cancelled scan, which a single
// error counter conflates. A list that does not parse never reaches a
// capture: crypto/tls refuses the handshake, so it is a CauseHandshake.
type ErrorCause int

const (
	// CauseNone: the scan succeeded.
	CauseNone ErrorCause = iota
	// CauseDial: the TCP connection could not be established.
	CauseDial
	// CauseHandshake: TCP connected but the TLS handshake failed or timed
	// out (resets, stalls, protocol errors).
	CauseHandshake
	// CauseCancelled: the scan context was cancelled.
	CauseCancelled
)

// String returns the cause's report label.
func (c ErrorCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseDial:
		return "dial"
	case CauseHandshake:
		return "handshake"
	case CauseCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Retryable reports whether a scan failure with this cause is worth another
// attempt: transport losses are, cancellations are not.
func (c ErrorCause) Retryable() bool { return c == CauseDial || c == CauseHandshake }

// Result is the scan record for one target — the analogue of a ZGrab2 log
// line.
type Result struct {
	Target Target
	// List is the certificate list exactly as presented, parsed into the
	// unified model; each certificate's Raw holds its DER bytes as
	// received. Nil when Err is set.
	List []*certmodel.Certificate
	// Version is the negotiated TLS version.
	Version uint16
	// Bytes is the total certificate payload size, fed to the rate limiter.
	Bytes int
	// Attempts is how many handshakes were tried (>= 1 once scanned).
	Attempts int
	// Digest identifies the presented list (certmodel.ListDigest over List),
	// computed once at capture time so downstream consumers — vantage
	// merging, the verdict dedup cache — never rehash the chain. The zero FP
	// when Err is set.
	Digest certmodel.FP
	Err    error
	// Cause classifies Err; CauseNone when Err is nil.
	Cause ErrorCause
}

// Scanner performs the handshakes.
type Scanner struct {
	// Timeout bounds each connection attempt (default 5s).
	Timeout time.Duration
	// Concurrency is the worker count for ScanAll (default 16).
	Concurrency int
	// BytesPerSecond caps aggregate certificate-payload throughput; 0
	// disables the cap. The paper scanned below 500 KB/s.
	BytesPerSecond int
	// MaxVersion caps the offered TLS version (tls.VersionTLS12 replicates
	// the paper's primary dataset); 0 means the stdlib default.
	MaxVersion uint16
	// Retry governs re-attempts after transport failures (dial, handshake).
	// The zero value scans each target exactly once. Cancellations are
	// never retried regardless of the policy.
	Retry faults.Policy
	// Clock paces the throttle and retry backoff; nil means the wall clock.
	Clock faults.Clock
	// Metrics, when non-nil, receives scan counters and latency histograms
	// (see scanMetrics for the names). Handles are resolved once; the scan
	// hot path then costs one atomic op per event.
	Metrics *obs.Registry

	limiterMu    sync.Mutex
	limiterSpent float64
	limiterMark  time.Time

	metricsOnce sync.Once
	m           scanMetrics
}

// scanMetrics holds the scanner's resolved metric handles. All fields are
// nil (no-op) when no registry is wired.
type scanMetrics struct {
	handshakes   *obs.Counter   // scan.handshakes: successful captures
	retries      *obs.Counter   // scan.retries: extra attempts spent on transport failures
	errDial      *obs.Counter   // scan.errors.dial
	errHandshake *obs.Counter   // scan.errors.handshake
	errCancelled *obs.Counter   // scan.errors.cancelled
	dialLat      *obs.Histogram // scan.dial_latency
	handshakeLat *obs.Histogram // scan.handshake_latency
}

// metrics resolves (once) the scanner's metric handles.
func (s *Scanner) metrics() *scanMetrics {
	s.metricsOnce.Do(func() {
		r := s.Metrics
		s.m = scanMetrics{
			handshakes:   r.Counter("scan.handshakes"),
			retries:      r.Counter("scan.retries"),
			errDial:      r.Counter("scan.errors.dial"),
			errHandshake: r.Counter("scan.errors.handshake"),
			errCancelled: r.Counter("scan.errors.cancelled"),
			dialLat:      r.Histogram("scan.dial_latency", obs.LatencyBuckets),
			handshakeLat: r.Histogram("scan.handshake_latency", obs.LatencyBuckets),
		}
	})
	return &s.m
}

// countResult records a finished Scan (after all retries) in the metrics:
// one success or one per-cause failure, plus the retries it consumed. Scoped
// to final results — never attempts — so the counters reconcile exactly with
// report-level error accounting (study.Report.ScanErrorCauses).
func (m *scanMetrics) countResult(res Result) {
	if res.Attempts > 1 {
		m.retries.Add(int64(res.Attempts - 1))
	}
	if res.Err == nil {
		m.handshakes.Inc()
		return
	}
	switch res.Cause {
	case CauseDial:
		m.errDial.Inc()
	case CauseHandshake:
		m.errHandshake.Inc()
	case CauseCancelled:
		m.errCancelled.Inc()
	}
}

func (s *Scanner) clock() faults.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	if s.Retry.Clock != nil {
		return s.Retry.Clock
	}
	return faults.Wall()
}

// Scan handshakes one target and captures its certificate list, retrying
// transport failures under the scanner's retry policy.
func (s *Scanner) Scan(ctx context.Context, target Target) Result {
	attempts := s.Retry.MaxAttempts()
	m := s.metrics()
	var res Result
	for attempt := 0; ; attempt++ {
		res = s.scanOnce(ctx, target)
		res.Attempts = attempt + 1
		if res.Err == nil || attempt+1 >= attempts || !res.Cause.Retryable() {
			m.countResult(res)
			return res
		}
		if s.Retry.Retryable != nil && !s.Retry.Retryable(res.Err) {
			m.countResult(res)
			return res
		}
		if s.clock().Sleep(ctx, s.Retry.Delay(attempt)) != nil {
			m.countResult(res)
			return res // cancelled mid-backoff; keep the transport error
		}
	}
}

// scanOnce performs a single dial + handshake + capture. The dial and the
// handshake run as separate steps so failures are attributed to the right
// cause — the tls.Dialer one-shot hid that distinction.
func (s *Scanner) scanOnce(ctx context.Context, target Target) Result {
	res := Result{Target: target}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	attemptCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	m := s.metrics()
	clock := s.clock()

	dialer := &net.Dialer{}
	dialStart := clock.Now()
	rawConn, err := dialer.DialContext(attemptCtx, "tcp", target.Addr)
	if err != nil {
		res.Cause = CauseDial
		if ctx.Err() != nil {
			res.Cause = CauseCancelled
		}
		res.Err = fmt.Errorf("tlsscan: dial %s: %w", target.Addr, err)
		return res
	}
	m.dialLat.ObserveDuration(clock.Now().Sub(dialStart))
	conn := tls.Client(rawConn, &tls.Config{
		ServerName:         target.Domain,
		InsecureSkipVerify: true, // capture, never judge
		MaxVersion:         s.MaxVersion,
	})
	hsStart := clock.Now()
	if err := conn.HandshakeContext(attemptCtx); err != nil {
		rawConn.Close()
		res.Cause = CauseHandshake
		if ctx.Err() != nil {
			res.Cause = CauseCancelled
		}
		res.Err = fmt.Errorf("tlsscan: handshake %s: %w", target.Addr, err)
		return res
	}
	m.handshakeLat.ObserveDuration(clock.Now().Sub(hsStart))
	state := conn.ConnectionState()
	res.Version = state.Version
	conn.Close()

	// The list is crypto/tls's own parse of the Certificate message: the
	// client parses every certificate, with x509.ParseCertificate, in
	// message order, and fails the handshake on one it cannot parse, so
	// each Raw is one received DER and Bytes is the message's payload.
	res.List = make([]*certmodel.Certificate, len(state.PeerCertificates))
	for i, c := range state.PeerCertificates {
		res.List[i] = certmodel.FromX509(c)
		res.Bytes += len(c.Raw)
	}
	res.Digest = certmodel.ListDigest(res.List)
	s.throttle(ctx, res.Bytes)
	return res
}

// throttle enforces the aggregate byte budget by sleeping workers once the
// allowance is spent. The sleep is context-aware: cancelling the scan frees
// workers immediately instead of leaving them sleeping off rate-limit debt.
func (s *Scanner) throttle(ctx context.Context, bytes int) {
	if s.BytesPerSecond <= 0 || bytes == 0 {
		return
	}
	clock := s.clock()
	s.limiterMu.Lock()
	now := clock.Now()
	if s.limiterMark.IsZero() {
		s.limiterMark = now
	}
	elapsed := now.Sub(s.limiterMark).Seconds()
	s.limiterSpent += float64(bytes) - elapsed*float64(s.BytesPerSecond)
	if s.limiterSpent < 0 {
		s.limiterSpent = 0
	}
	s.limiterMark = now
	sleep := time.Duration(s.limiterSpent / float64(s.BytesPerSecond) * float64(time.Second))
	s.limiterMu.Unlock()
	if sleep > 0 {
		_ = clock.Sleep(ctx, sleep)
	}
}

// ScanAll scans every target with bounded concurrency, preserving input
// order in the result slice.
func (s *Scanner) ScanAll(ctx context.Context, targets []Target) []Result {
	workers := s.Concurrency
	if workers <= 0 {
		workers = 16
	}
	results := make([]Result, len(targets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, t := range targets {
		if ctx.Err() != nil {
			results[i] = Result{Target: t, Err: ctx.Err(), Cause: CauseCancelled}
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t Target) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = s.Scan(ctx, t)
		}(i, t)
	}
	wg.Wait()
	return results
}

// MergeVantages combines per-domain results from several vantage points the
// way the paper unions its US and Australia scans: every distinct chain is
// kept, keyed by domain. Callers treat a domain as non-compliant if any
// vantage's chain is.
func MergeVantages(vantages ...[]Result) map[string][]Result {
	merged := make(map[string][]Result)
	seen := make(map[string]map[certmodel.FP]bool) // domain -> chain digest
	for _, results := range vantages {
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			d := r.Target.Domain
			// Reuse the capture-time digest; results built by hand (tests,
			// adapters) may not carry one, so fall back to hashing.
			digest := r.Digest
			if digest == (certmodel.FP{}) {
				digest = certmodel.ListDigest(r.List)
			}
			if seen[d] == nil {
				seen[d] = make(map[certmodel.FP]bool)
			}
			if seen[d][digest] {
				continue
			}
			seen[d][digest] = true
			merged[d] = append(merged[d], r)
		}
	}
	return merged
}

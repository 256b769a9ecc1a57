package tlsscan

import (
	"context"
	"crypto/tls"
	"testing"
	"time"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/compliance"
	"chainchaos/internal/faults"
	"chainchaos/internal/tlsserve"
	"chainchaos/internal/topo"
)

// buildPKI creates a real chain E<-I1<-I2<-R for scanning tests.
func buildPKI(t *testing.T, domain string) (leaf *certgen.Leaf, i1, i2, root *certmodel.Certificate) {
	t.Helper()
	r, err := certgen.NewRoot("Scan Root")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.NewIntermediate("Scan CA 2")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := a2.NewIntermediate("Scan CA 1")
	if err != nil {
		t.Fatal(err)
	}
	l, err := a1.NewLeaf(domain)
	if err != nil {
		t.Fatal(err)
	}
	return l, a1.Cert, a2.Cert, r.Cert
}

func TestScanCapturesWireOrder(t *testing.T) {
	const domain = "reversed.scan.example"
	leaf, i1, i2, root := buildPKI(t, domain)

	// Deploy the classic reversed misconfiguration: leaf, then the bundle
	// pasted top-down.
	list := []*certmodel.Certificate{leaf.Cert, root, i2, i1}
	srv, err := tlsserve.Start(tlsserve.Config{List: list, Key: leaf.Key, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scanner := &Scanner{Timeout: 3 * time.Second}
	res := scanner.Scan(context.Background(), Target{Addr: srv.Addr(), Domain: domain})
	if res.Err != nil {
		t.Fatalf("scan failed: %v", res.Err)
	}
	if len(res.List) != 4 {
		t.Fatalf("captured %d certificates, want 4", len(res.List))
	}
	payload := 0
	for i := range list {
		if !res.List[i].Equal(list[i]) {
			t.Errorf("wire position %d differs from deployed list", i)
		}
		payload += len(list[i].Raw)
	}
	if res.Bytes != payload {
		t.Errorf("Bytes = %d, want the deployed DER's %d", res.Bytes, payload)
	}

	// The captured chain must analyze as reversed, exactly like the
	// deployment.
	g := topo.Build(res.List)
	order := compliance.AnalyzeOrder(g)
	if !order.ReversedAny || order.SequentialOK {
		t.Errorf("scan->analysis lost the reversal: %+v", order)
	}
	if lp := compliance.ClassifyLeafPlacement(res.List, domain); lp != compliance.LeafCorrectMatched {
		t.Errorf("leaf placement = %v", lp)
	}
}

func TestScanTLS12And13AgreeOnChain(t *testing.T) {
	const domain = "versions.scan.example"
	leaf, i1, _, _ := buildPKI(t, domain)
	list := []*certmodel.Certificate{leaf.Cert, i1}
	srv, err := tlsserve.Start(tlsserve.Config{List: list, Key: leaf.Key, Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, v := range []uint16{tls.VersionTLS12, tls.VersionTLS13} {
		scanner := &Scanner{Timeout: 3 * time.Second, MaxVersion: v}
		res := scanner.Scan(context.Background(), Target{Addr: srv.Addr(), Domain: domain})
		if res.Err != nil {
			t.Fatalf("scan (version %x) failed: %v", v, res.Err)
		}
		if res.Version != v {
			t.Errorf("negotiated %x, want %x", res.Version, v)
		}
		if len(res.List) != 2 {
			t.Errorf("version %x: captured %d certs", v, len(res.List))
		}
	}
}

func TestScanAllAndMergeVantages(t *testing.T) {
	farm := tlsserve.NewFarm()
	defer farm.Close()

	var targets []Target
	domains := []string{"a.scan.example", "b.scan.example", "c.scan.example"}
	for _, d := range domains {
		leaf, i1, i2, root := buildPKI(t, d)
		srv, err := farm.Add(tlsserve.Config{
			List:   []*certmodel.Certificate{leaf.Cert, i1, i2, root},
			Key:    leaf.Key,
			Domain: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, Target{Addr: srv.Addr(), Domain: d})
	}
	// Add one dead target: errors must not abort the sweep.
	targets = append(targets, Target{Addr: "127.0.0.1:1", Domain: "dead.scan.example"})

	scanner := &Scanner{Timeout: 2 * time.Second, Concurrency: 4}
	us := scanner.ScanAll(context.Background(), targets)
	au := scanner.ScanAll(context.Background(), targets)

	okCount := 0
	for _, r := range us {
		if r.Err == nil {
			okCount++
		}
	}
	if okCount != 3 {
		t.Fatalf("successful scans = %d, want 3", okCount)
	}

	merged := MergeVantages(us, au)
	if len(merged) != 3 {
		t.Fatalf("merged domains = %d, want 3", len(merged))
	}
	for d, rs := range merged {
		if len(rs) != 1 {
			t.Errorf("%s: identical chains from both vantages should merge to 1, got %d", d, len(rs))
		}
	}
}

// TestChainDigestDistinguishesOrder: the digest must separate different
// lists, orderings and lengths, and agree on identical lists.
func TestChainDigestDistinguishesOrder(t *testing.T) {
	leaf, i1, i2, root := buildPKI(t, "digest.scan.example")
	a := []*certmodel.Certificate{leaf.Cert, i1, i2, root}
	b := []*certmodel.Certificate{leaf.Cert, i2, i1, root}
	c := a[:3]

	if certmodel.ListDigest(a) != certmodel.ListDigest(a) {
		t.Error("digest not deterministic")
	}
	if certmodel.ListDigest(a) == certmodel.ListDigest(b) {
		t.Error("digest blind to certificate order")
	}
	if certmodel.ListDigest(a) == certmodel.ListDigest(c) {
		t.Error("digest blind to list length")
	}
	if certmodel.ListDigest(nil) != certmodel.ListDigest([]*certmodel.Certificate{}) {
		t.Error("empty digests differ")
	}
}

func TestThrottleBounds(t *testing.T) {
	s := &Scanner{BytesPerSecond: 1 << 20}
	start := time.Now()
	s.throttle(context.Background(), 1<<10) // 1 KiB against 1 MiB/s: negligible sleep
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("throttle slept %v for a tiny payload", elapsed)
	}
}

func TestThrottlePacesOnInjectedClock(t *testing.T) {
	clock := faults.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	s := &Scanner{BytesPerSecond: 1000, Clock: clock}
	s.throttle(context.Background(), 2000) // 2s of debt at 1000 B/s
	if got := clock.SleptTotal(); got != 2*time.Second {
		t.Errorf("throttle slept %v on the fake clock, want 2s", got)
	}
}

// TestThrottleCancellation: cancelling the scan context must release a
// worker that owes rate-limit debt immediately — the old time.Sleep kept it
// pinned for the full debt.
func TestThrottleCancellation(t *testing.T) {
	s := &Scanner{BytesPerSecond: 1} // 1 B/s: any payload is hours of debt
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	s.throttle(ctx, 1<<20)
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("cancelled throttle blocked %v", elapsed)
	}
}

func TestScanRetryRecoversFailFirstN(t *testing.T) {
	const domain = "flaky.scan.example"
	leaf, i1, i2, root := buildPKI(t, domain)
	srv, err := tlsserve.Start(tlsserve.Config{
		List: []*certmodel.Certificate{leaf.Cert, i1, i2, root}, Key: leaf.Key,
		Domain: domain, Faults: tlsserve.FaultConfig{FailFirst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clock := faults.NewFakeClock(time.Now())
	scanner := &Scanner{
		Timeout: 2 * time.Second,
		Retry:   faults.Policy{Attempts: 4, BaseDelay: 10 * time.Millisecond, Clock: clock},
	}
	res := scanner.Scan(context.Background(), Target{Addr: srv.Addr(), Domain: domain})
	if res.Err != nil {
		t.Fatalf("retrying scan failed: %v (cause %v, attempts %d)", res.Err, res.Cause, res.Attempts)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two resets, one success)", res.Attempts)
	}
	if len(res.List) != 4 {
		t.Errorf("captured %d certs", len(res.List))
	}
	if clock.SleptTotal() == 0 {
		t.Error("retry backoff never consulted the injected clock")
	}
}

func TestScanStallHitsDeadline(t *testing.T) {
	const domain = "stall.scan.example"
	leaf, i1, _, _ := buildPKI(t, domain)
	srv, err := tlsserve.Start(tlsserve.Config{
		List: []*certmodel.Certificate{leaf.Cert, i1}, Key: leaf.Key,
		Domain: domain, Faults: tlsserve.FaultConfig{StallHandshake: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scanner := &Scanner{Timeout: 50 * time.Millisecond}
	res := scanner.Scan(context.Background(), Target{Addr: srv.Addr(), Domain: domain})
	if res.Err == nil {
		t.Fatal("scan of a stalled server succeeded")
	}
	if res.Cause != CauseHandshake {
		t.Errorf("cause = %v, want handshake (TCP connected, TLS stalled)", res.Cause)
	}
}

func TestScanErrorCauses(t *testing.T) {
	// Dead port: dial failure.
	scanner := &Scanner{Timeout: time.Second}
	res := scanner.Scan(context.Background(), Target{Addr: "127.0.0.1:1", Domain: "dead.example"})
	if res.Cause != CauseDial || res.Err == nil {
		t.Errorf("dead port: cause = %v, err = %v", res.Cause, res.Err)
	}
	if res.Attempts != 1 {
		t.Errorf("zero-value policy made %d attempts", res.Attempts)
	}

	// Cancelled context: every result is marked cancelled, not dial.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := scanner.ScanAll(ctx, []Target{{Addr: "127.0.0.1:1", Domain: "x"}})
	if results[0].Cause != CauseCancelled {
		t.Errorf("cancelled scan cause = %v", results[0].Cause)
	}

	// Cause strings are stable report labels.
	for c, want := range map[ErrorCause]string{
		CauseNone: "none", CauseDial: "dial", CauseHandshake: "handshake",
		CauseCancelled: "cancelled",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
	if !CauseDial.Retryable() || !CauseHandshake.Retryable() ||
		CauseCancelled.Retryable() || CauseNone.Retryable() {
		t.Error("cause retryability wrong")
	}
}

func TestScanRetryStopsOnCancellation(t *testing.T) {
	clock := faults.NewFakeClock(time.Now())
	scanner := &Scanner{
		Timeout: time.Second,
		Retry:   faults.Policy{Attempts: 5, BaseDelay: time.Millisecond, Clock: clock},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := scanner.Scan(ctx, Target{Addr: "127.0.0.1:1", Domain: "x"})
	if res.Cause != CauseCancelled {
		t.Fatalf("cause = %v, want cancelled", res.Cause)
	}
	if res.Attempts != 1 {
		t.Errorf("cancelled scan retried: %d attempts", res.Attempts)
	}
}

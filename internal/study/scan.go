// The scan stage: a site's listener — a real socket plus goroutines — lives
// only inside its scan. The scan worker starts it, captures the chain from
// every vantage and closes it, so at most Concurrency listeners are open at
// once at any pipeline depth.
package study

import (
	"context"
	"slices"
	"time"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/tlsscan"
	"chainchaos/internal/tlsserve"
)

// listenerFaults is a listener's fault ledger, read when its scan is done.
type listenerFaults struct {
	injected, acceptRetries, deadlineExpiries int
}

// capture is what one target's scan yields: the first list any vantage
// captured, every failed attempt by cause, whether a re-scan pass recovered
// it, whether every attempt missed, and the closed listener's fault ledger.
type capture struct {
	list      []*certmodel.Certificate
	errs      ErrorBreakdown
	rescanned bool
	lost      bool
	faults    listenerFaults
}

// scannedSite is a site with its capture, as the scan stage hands it on.
// The grade stage fills in site.Report and site.Verdicts and passes it to
// the sink unchanged.
type scannedSite struct {
	capture
	site   *site
	minted bool
}

const (
	// handshakeTimeout bounds each handshake.
	handshakeTimeout = 5 * time.Second
	// rescanPasses bounds the re-scan sweeps over a site that every vantage
	// failed to capture.
	rescanPasses = 1
)

// siteScanner is the scan stage's state: the ZGrab2-style scanner every
// vantage probes through and the listener settings each scan serves with.
// Transient failures are retried inside the scanner; whatever still fails is
// counted per cause, and a site every vantage missed gets up to
// rescanPasses more attempts.
type siteScanner struct {
	cfg       Config
	scanner   *tlsscan.Scanner
	rescanned *obs.Counter
}

func newSiteScanner(cfg Config) *siteScanner {
	s := &siteScanner{
		cfg: cfg,
		scanner: &tlsscan.Scanner{
			Timeout: handshakeTimeout,
			Clock:   cfg.Clock,
			Metrics: cfg.Metrics,
		},
		rescanned: cfg.Metrics.Counter("study.rescanned"),
	}
	if cfg.Retries > 0 {
		s.scanner.Retry = faults.Policy{
			Attempts:  cfg.Retries + 1,
			BaseDelay: 20 * time.Millisecond,
			MaxDelay:  500 * time.Millisecond,
			Seed:      cfg.Seed,
			Clock:     cfg.Clock,
		}
	}
	return s
}

// stage is the scan stage, Concurrency workers wide.
func (s *siteScanner) stage() pipeline.Stage[deployed, scannedSite] {
	return pipeline.Stage[deployed, scannedSite]{Name: "scan", Workers: s.cfg.Concurrency, Fn: s.scanSite}
}

// scanSite captures one deployed site's chain.
func (s *siteScanner) scanSite(ctx context.Context, _, _ int, d deployed) (scannedSite, error) {
	out := scannedSite{site: d.site, minted: d.minted}
	var err error
	switch {
	case d.replay != nil:
		// Scenario replay: the chain is already "captured" verbatim.
		out.list = d.replay
	case d.slot != nil:
		// Shared chain under Dedup: the slot's first site to arrive serves
		// and scans it once. Its scan tallies and fault ledger are folded
		// into the run totals after the drain, never into per-site records.
		// Nothing reads the slot's leaf or wire after its scan, and the
		// capture holds the served certificates, so clearing the two frees
		// the leaf's key and nothing the capture needs.
		slot := d.slot
		slot.once.Do(func() {
			slot.capture, slot.err = s.serveScan(ctx, slot.leaf, slot.wire, "probe."+slot.zone)
			slot.leaf, slot.wire = nil, nil
		})
		out.list, out.lost, err = slot.list, slot.lost, slot.err
	default:
		out.capture, err = s.serveScan(ctx, d.leaf, d.wire, d.site.Domain)
	}
	return out, err
}

// serveScan starts a listener for one deployment, scans it as domain and
// closes it, so a listener lives only inside its scan and each scan worker
// holds at most one. The capture carries the listener's fault ledger, and
// each captured certificate bit-identical to a served one is replaced by
// the served one: both are x509.ParseCertificate over the same DER, so the
// capture keeps one parse of each certificate, not two.
func (s *siteScanner) serveScan(ctx context.Context, leaf *certgen.Leaf, wire []*certmodel.Certificate, domain string) (capture, error) {
	srv, err := tlsserve.Start(tlsserve.Config{
		List: wire, Key: leaf.Key, Domain: domain,
		Faults: s.cfg.Faults, Clock: s.cfg.Clock, Metrics: s.cfg.Metrics,
	})
	if err != nil {
		return capture{}, err
	}
	defer srv.Close()
	c := s.scan(ctx, tlsscan.Target{Addr: srv.Addr(), Domain: domain})
	c.faults = listenerFaults{srv.FaultsInjected(), srv.AcceptRetries(), srv.DeadlineExpiries()}
	for i, cert := range c.list {
		if j := slices.IndexFunc(wire, cert.Equal); j >= 0 {
			c.list[i] = wire[j]
		}
	}
	return c, nil
}

// scan probes one target from every vantage, then re-scans it up to
// rescanPasses times while nothing was captured.
func (s *siteScanner) scan(ctx context.Context, target tlsscan.Target) capture {
	c := capture{lost: true}
	attempt := func(rescan bool) {
		res := s.scanner.Scan(ctx, target)
		switch {
		case res.Err != nil:
			c.errs.add(res.Cause)
		case c.lost:
			c.list, c.lost, c.rescanned = res.List, false, rescan
			if rescan {
				s.rescanned.Inc()
			}
		}
	}
	for v := 0; v < s.cfg.Vantages; v++ {
		attempt(false)
	}
	for pass := 0; pass < rescanPasses && c.lost; pass++ {
		attempt(true)
	}
	return c
}

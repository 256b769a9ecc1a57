// Package tlsserve stands up real TLS listeners that present arbitrary —
// including structurally non-compliant — certificate lists. It is the
// counterpart of the paper's scanned web servers: whatever certificate list
// a deployment model produced goes onto the wire exactly as-is, because
// crypto/tls sends the configured [][]byte chain verbatim in the Certificate
// message.
//
// Servers can also misbehave on purpose: a FaultConfig turns a listener into
// the hostile endpoints a live scan meets — connections reset after accept,
// handshakes that stall, listeners that fail their first N clients, writers
// that trickle bytes — so the scanner's retry and deadline machinery can be
// exercised deterministically on loopback.
package tlsserve

import (
	"context"
	"crypto"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
)

// FaultConfig describes the misbehaviours a server injects. The zero value
// injects nothing.
type FaultConfig struct {
	// FailFirst resets the first N accepted connections (TCP RST before any
	// TLS byte) and then behaves — the transient-outage shape a retrying
	// scanner must survive.
	FailFirst int
	// AcceptThenReset resets every accepted connection: the listener is up,
	// the handshake never happens.
	AcceptThenReset bool
	// StallHandshake delays the server side of the handshake by this long
	// after accepting — long stalls provoke the client's timeout, short
	// ones its patience.
	StallHandshake time.Duration
	// SlowWrite inserts this delay before every write on the connection, so
	// the Certificate message trickles out.
	SlowWrite time.Duration
}

// Server is one TLS listener presenting a fixed certificate list.
type Server struct {
	listener net.Listener
	tlsCfg   *tls.Config
	domain   string
	faults   FaultConfig
	timeout  time.Duration
	clock    faults.Clock

	closeCtx  context.Context
	closeFn   context.CancelFunc
	closeOnce sync.Once

	m serveMetrics

	mu               sync.Mutex
	conns            int
	faultsFired      int
	acceptRetries    int
	deadlineExpiries int
}

// serveMetrics holds the server's resolved metric handles; all nil (no-op)
// without a registry. Counters are shared across every server wired to the
// same registry, so a farm's totals aggregate without extra bookkeeping.
type serveMetrics struct {
	listeners        *obs.Gauge   // serve.listeners: listeners started and not yet closed
	accepts          *obs.Counter // serve.accepts
	faults           *obs.Counter // serve.faults: injected misbehaviours fired
	acceptRetries    *obs.Counter // serve.accept_retries: temporary Accept errors retried
	deadlineExpiries *obs.Counter // serve.deadline_expiries: handshakes cut by the per-conn deadline
}

func resolveServeMetrics(r *obs.Registry) serveMetrics {
	return serveMetrics{
		listeners:        r.Gauge("serve.listeners"),
		accepts:          r.Counter("serve.accepts"),
		faults:           r.Counter("serve.faults"),
		acceptRetries:    r.Counter("serve.accept_retries"),
		deadlineExpiries: r.Counter("serve.deadline_expiries"),
	}
}

// Config describes the deployment to serve.
type Config struct {
	// List is the wire-order certificate list. The first entry must be the
	// certificate matching Key — the same constraint real servers enforce
	// ("SSL_CTX_use_PrivateKey failed").
	List []*certmodel.Certificate
	// Key is the private key for List[0].
	Key crypto.PrivateKey
	// Domain is informational (used by inventory listings).
	Domain string
	// MaxVersion optionally caps the TLS version (the paper scanned with
	// TLS 1.2 and compared against 1.3); zero means the stdlib default.
	MaxVersion uint16
	// HandshakeTimeout bounds each accepted connection's handshake (default
	// 10s): a peer that connects and never writes must not pin a goroutine
	// forever.
	HandshakeTimeout time.Duration
	// Faults makes the server misbehave on purpose.
	Faults FaultConfig
	// Clock paces accept-error backoff, injected stalls, and the per-
	// connection handshake deadline; nil means the wall clock. Tests inject
	// a fake clock so nothing really sleeps and deadlines are controlled.
	Clock faults.Clock
	// Metrics, when non-nil, receives accept/fault/retry/deadline counters
	// and the open-listener gauge (see serveMetrics for the names).
	Metrics *obs.Registry
}

// Start launches a listener on 127.0.0.1 (ephemeral port) presenting the
// configured list. Each accepted connection is handshaken and then closed;
// the server exists to hand chains to scanners, not to serve content.
func Start(cfg Config) (*Server, error) {
	if len(cfg.List) == 0 {
		return nil, fmt.Errorf("tlsserve: empty certificate list")
	}
	raw := make([][]byte, len(cfg.List))
	for i, c := range cfg.List {
		if c.X509 == nil {
			return nil, fmt.Errorf("tlsserve: certificate %d (%s) is synthetic; TLS needs real DER", i, c.Subject)
		}
		raw[i] = c.Raw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tlsserve: listen: %w", err)
	}
	return startWithListener(ln, cfg, raw), nil
}

// startWithListener finishes construction over an already-open listener;
// tests use it to inject listeners that fail Accept on purpose.
func startWithListener(ln net.Listener, cfg Config, raw [][]byte) *Server {
	timeout := cfg.HandshakeTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = faults.Wall()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		listener: ln,
		tlsCfg: &tls.Config{
			Certificates: []tls.Certificate{{Certificate: raw, PrivateKey: cfg.Key}},
			MaxVersion:   cfg.MaxVersion,
		},
		domain:   cfg.Domain,
		faults:   cfg.Faults,
		timeout:  timeout,
		clock:    clock,
		m:        resolveServeMetrics(cfg.Metrics),
		closeCtx: ctx,
		closeFn:  cancel,
	}
	s.m.listeners.Add(1)
	go s.acceptLoop()
	return s
}

// acceptLoop accepts until the listener is closed. Temporary errors —
// EMFILE, aborted connections, timeouts — are retried with capped
// exponential backoff instead of silently killing the listener mid-study;
// only a closed listener (or a genuinely permanent error) ends the loop.
func (s *Server) acceptLoop() {
	const (
		baseBackoff = 5 * time.Millisecond
		maxBackoff  = time.Second
	)
	backoff := time.Duration(0)
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			if s.closeCtx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			if !faults.IsTemporaryAccept(err) {
				return
			}
			if backoff == 0 {
				backoff = baseBackoff
			} else if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			s.mu.Lock()
			s.acceptRetries++
			s.mu.Unlock()
			s.m.acceptRetries.Inc()
			if s.clock.Sleep(s.closeCtx, backoff) != nil {
				return
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		s.conns++
		n := s.conns
		s.mu.Unlock()
		s.m.accepts.Inc()
		go s.handle(conn, n)
	}
}

// handle runs one accepted connection: fault injection first, then a
// deadline-bounded handshake.
func (s *Server) handle(conn net.Conn, n int) {
	defer conn.Close()
	fc := s.faults
	if fc.AcceptThenReset || n <= fc.FailFirst {
		s.countFault()
		reset(conn)
		return
	}
	if fc.StallHandshake > 0 {
		s.countFault()
		if s.clock.Sleep(s.closeCtx, fc.StallHandshake) != nil {
			return // server closed mid-stall
		}
	}
	if fc.SlowWrite > 0 {
		conn = &slowConn{Conn: conn, delay: fc.SlowWrite, clock: s.clock, ctx: s.closeCtx}
	}
	tc := tls.Server(conn, s.tlsCfg)
	defer tc.Close()
	// A peer that connects and never writes must not hold this goroutine
	// (and its counted connection) forever. The deadline comes off the
	// injected clock, not time.Now(), so FakeClock fault tests control
	// exactly when it expires.
	_ = conn.SetDeadline(s.clock.Now().Add(s.timeout))
	// Complete the handshake so the client receives the Certificate
	// message even if it never writes afterwards.
	if err := tc.Handshake(); err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		s.mu.Lock()
		s.deadlineExpiries++
		s.mu.Unlock()
		s.m.deadlineExpiries.Inc()
	}
}

// countFault records one injected misbehaviour.
func (s *Server) countFault() {
	s.mu.Lock()
	s.faultsFired++
	s.mu.Unlock()
	s.m.faults.Inc()
}

// reset closes conn abruptly (RST instead of FIN where the transport allows
// it), modelling a peer that accepts and immediately drops.
func reset(conn net.Conn) {
	if tcp, ok := conn.(*net.TCPConn); ok {
		_ = tcp.SetLinger(0)
	}
	_ = conn.Close()
}

// slowConn delays every write, trickling the handshake onto the wire.
type slowConn struct {
	net.Conn
	delay time.Duration
	clock faults.Clock
	ctx   context.Context
}

// Write delays, then writes. An aborted sleep propagates its underlying
// cause (the context error — server close or external cancellation) instead
// of collapsing everything into net.ErrClosed, which mis-bucketed error
// classification for anything inspecting the handshake failure.
func (c *slowConn) Write(p []byte) (int, error) {
	if err := c.clock.Sleep(c.ctx, c.delay); err != nil {
		return 0, fmt.Errorf("tlsserve: slow write aborted: %w", err)
	}
	return c.Conn.Write(p)
}

// Addr returns the listener's host:port.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Domain returns the configured domain label.
func (s *Server) Domain() string { return s.domain }

// Connections returns how many connections were accepted.
func (s *Server) Connections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns
}

// FaultsInjected returns how many connections had a fault injected.
func (s *Server) FaultsInjected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faultsFired
}

// AcceptRetries returns how many temporary Accept errors were retried.
func (s *Server) AcceptRetries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptRetries
}

// DeadlineExpiries returns how many handshakes were cut short by the
// per-connection deadline.
func (s *Server) DeadlineExpiries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadlineExpiries
}

// Close shuts the listener down. Safe to call multiple times; the first
// call takes the listener off the serve.listeners gauge.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closeFn()
		s.listener.Close()
		s.m.listeners.Add(-1)
	})
}

// Farm manages a set of servers, one per domain — the "measurement testbed"
// the examples and integration tests scan.
type Farm struct {
	mu      sync.Mutex
	servers map[string]*Server // domain -> server
}

// NewFarm creates an empty farm.
func NewFarm() *Farm {
	return &Farm{servers: make(map[string]*Server)}
}

// Add starts a server for cfg and registers it under cfg.Domain.
func (f *Farm) Add(cfg Config) (*Server, error) {
	srv, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.servers[cfg.Domain]; ok {
		old.Close()
	}
	f.servers[cfg.Domain] = srv
	return srv, nil
}

// Addr returns the address serving domain, or "".
func (f *Farm) Addr(domain string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.servers[domain]; ok {
		return s.Addr()
	}
	return ""
}

// Domains returns the registered domains.
func (f *Farm) Domains() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.servers))
	for d := range f.servers {
		out = append(out, d)
	}
	return out
}

// Close shuts every server down.
func (f *Farm) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.servers {
		s.Close()
	}
}

package tlsserve

import (
	"crypto/tls"
	"crypto/x509"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
)

func testChain(t *testing.T, domain string) (*certgen.Leaf, []*certmodel.Certificate) {
	t.Helper()
	root, err := certgen.NewRoot("Serve Root")
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate("Serve CA")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.NewLeaf(domain)
	if err != nil {
		t.Fatal(err)
	}
	return leaf, []*certmodel.Certificate{leaf.Cert, inter.Cert, root.Cert}
}

func capture(t *testing.T, addr, sni string, maxVersion uint16) [][]byte {
	t.Helper()
	var raw [][]byte
	conn, err := tls.Dial("tcp", addr, &tls.Config{
		ServerName:         sni,
		InsecureSkipVerify: true,
		MaxVersion:         maxVersion,
		VerifyPeerCertificate: func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
			raw = rawCerts
			return nil
		},
	})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	conn.Close()
	return raw
}

func TestServePresentsListVerbatim(t *testing.T) {
	leaf, list := testChain(t, "serve.example")
	// Scramble the order deliberately: the server must not fix it.
	scrambled := []*certmodel.Certificate{list[0], list[2], list[1]}
	srv, err := Start(Config{List: scrambled, Key: leaf.Key, Domain: "serve.example"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw := capture(t, srv.Addr(), "serve.example", 0)
	if len(raw) != 3 {
		t.Fatalf("captured %d certs", len(raw))
	}
	for i, want := range scrambled {
		got, err := certmodel.ParseDER(raw[i])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("position %d differs", i)
		}
	}
	if srv.Connections() == 0 {
		t.Error("connection not counted")
	}
	if srv.Domain() != "serve.example" {
		t.Error("domain label lost")
	}
}

func TestStartRejectsBadConfigs(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Error("empty list accepted")
	}
	synth := certmodel.SyntheticRoot("Synth", time.Now())
	if _, err := Start(Config{List: []*certmodel.Certificate{synth}}); err == nil {
		t.Error("synthetic certificate accepted")
	}
}

func TestMaxVersionCap(t *testing.T) {
	leaf, list := testChain(t, "cap.example")
	srv, err := Start(Config{List: list, Key: leaf.Key, Domain: "cap.example", MaxVersion: tls.VersionTLS12})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := tls.Dial("tcp", srv.Addr(), &tls.Config{InsecureSkipVerify: true, ServerName: "cap.example"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if v := conn.ConnectionState().Version; v != tls.VersionTLS12 {
		t.Errorf("negotiated %x, want TLS 1.2", v)
	}
}

// flakyListener fails its first N Accept calls with a temporary error
// before delegating to the real listener — the EMFILE shape that used to
// kill acceptLoop permanently.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failures > 0 {
		l.failures--
		l.mu.Unlock()
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func TestAcceptLoopRetriesTemporaryErrors(t *testing.T) {
	leaf, list := testChain(t, "flaky.example")
	raw := make([][]byte, len(list))
	for i, c := range list {
		raw[i] = c.Raw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := faults.NewFakeClock(time.Now())
	srv := startWithListener(&flakyListener{Listener: ln, failures: 3},
		Config{Key: leaf.Key, Domain: "flaky.example", Clock: clock}, raw)
	defer srv.Close()

	// The listener must survive the three EMFILEs and still serve.
	captured := capture(t, srv.Addr(), "flaky.example", 0)
	if len(captured) != 3 {
		t.Fatalf("captured %d certs after temporary accept errors", len(captured))
	}
	if got := srv.AcceptRetries(); got != 3 {
		t.Errorf("accept retries = %d, want 3", got)
	}
	// Backoff was paced on the fake clock: recorded, never really slept.
	if n := len(clock.Sleeps()); n != 3 {
		t.Errorf("backoff sleeps recorded = %d, want 3", n)
	}
}

func TestAcceptThenResetFault(t *testing.T) {
	leaf, list := testChain(t, "reset.example")
	srv, err := Start(Config{
		List: list, Key: leaf.Key, Domain: "reset.example",
		Faults: FaultConfig{AcceptThenReset: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = tls.Dial("tcp", srv.Addr(), &tls.Config{InsecureSkipVerify: true, ServerName: "reset.example"})
	if err == nil {
		t.Fatal("handshake succeeded against an accept-then-reset server")
	}
	if srv.FaultsInjected() == 0 {
		t.Error("fault not counted")
	}
}

func TestFailFirstNFault(t *testing.T) {
	leaf, list := testChain(t, "failfirst.example")
	srv, err := Start(Config{
		List: list, Key: leaf.Key, Domain: "failfirst.example",
		Faults: FaultConfig{FailFirst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fails := 0
	for i := 0; i < 2; i++ {
		if _, err := tls.Dial("tcp", srv.Addr(), &tls.Config{InsecureSkipVerify: true, ServerName: "failfirst.example"}); err != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("first two connections: %d failed, want 2", fails)
	}
	// The third connection is served normally.
	if raw := capture(t, srv.Addr(), "failfirst.example", 0); len(raw) != 3 {
		t.Errorf("post-fault capture got %d certs", len(raw))
	}
	if srv.FaultsInjected() != 2 {
		t.Errorf("faults injected = %d, want 2", srv.FaultsInjected())
	}
}

func TestHandshakeDeadlineFreesSilentPeer(t *testing.T) {
	leaf, list := testChain(t, "silent.example")
	srv, err := Start(Config{
		List: list, Key: leaf.Key, Domain: "silent.example",
		HandshakeTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Connect raw TCP and never send a ClientHello: the server-side
	// deadline must close the connection rather than pin it forever.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server wrote data to a silent peer")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server never closed the silent connection (client read timed out)")
	}
}

func TestSlowWriteStillServes(t *testing.T) {
	leaf, list := testChain(t, "slow.example")
	srv, err := Start(Config{
		List: list, Key: leaf.Key, Domain: "slow.example",
		Faults: FaultConfig{SlowWrite: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if raw := capture(t, srv.Addr(), "slow.example", 0); len(raw) != 3 {
		t.Errorf("slow-write capture got %d certs", len(raw))
	}
}

func TestFarmLifecycle(t *testing.T) {
	f := NewFarm()
	defer f.Close()
	leaf, list := testChain(t, "farm.example")
	srv, err := f.Add(Config{List: list, Key: leaf.Key, Domain: "farm.example"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Addr("farm.example") != srv.Addr() {
		t.Error("farm address lookup wrong")
	}
	if f.Addr("missing.example") != "" {
		t.Error("missing domain should yield empty address")
	}
	if len(f.Domains()) != 1 {
		t.Errorf("domains = %v", f.Domains())
	}
	// Replacing a domain closes the old server.
	leaf2, list2 := testChain(t, "farm.example")
	srv2, err := f.Add(Config{List: list2, Key: leaf2.Key, Domain: "farm.example"})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.Addr() == srv.Addr() {
		t.Error("replacement reused the address")
	}
	if len(f.Domains()) != 1 {
		t.Error("replacement duplicated the domain")
	}
	// Double close is safe.
	srv2.Close()
	srv2.Close()
}

// TestListenerGauge: serve.listeners counts listeners started and not yet
// closed; a second Close of the same server does not count twice.
func TestListenerGauge(t *testing.T) {
	leaf, list := testChain(t, "gauge.example")
	reg := obs.NewRegistry()
	live := reg.Gauge("serve.listeners")
	start := func() *Server {
		srv, err := Start(Config{List: list, Key: leaf.Key, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a, b := start(), start()
	if n := live.Value(); n != 2 {
		t.Fatalf("serve.listeners = %d after two starts, want 2", n)
	}
	a.Close()
	a.Close()
	if n := live.Value(); n != 1 {
		t.Fatalf("serve.listeners = %d after closing one server twice, want 1", n)
	}
	b.Close()
	if n := live.Value(); n != 0 {
		t.Fatalf("serve.listeners = %d after closing both, want 0", n)
	}
}

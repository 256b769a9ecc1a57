// Package chainserved is the serving layer over the paper's analysis
// pipeline: an HTTP/JSON service that accepts one certificate chain per
// request — pasted as PEM or named as a host:port to live-scan — and answers
// with the structural compliance verdict (§3/§4), the per-client
// construction matrix (Table 9's eight models), and the §6-recommendations
// repair from chainfix.
//
// The production posture mirrors the measurement pipeline's discipline:
//
//   - Admission control bounds concurrent verdict work with a semaphore;
//     excess load is shed immediately with 429 + Retry-After instead of
//     queueing without bound (a verdict request costs eight path-builds, so
//     an unbounded queue is a memory bomb).
//   - Responses are memoized through core.Memo, keyed on the chain digest
//     and the leaf-match bit — the study's dedup soundness model, one memo
//     per repair configuration. Only domain-independent outputs are
//     cached, already encoded; leaf placement is recomputed per request.
//     The memos keep learning new chains for the daemon's whole lifetime.
//   - A request body in canonical form (the form json.Marshal writes for
//     a pasted chain) is decoded in one pass over a pooled buffer, its PEM
//     unescaped in place; any other body is decoded by encoding/json,
//     whose answers are the reference (decode.go).
//   - Pasted certificates are parsed through a bounded per-server memo of
//     DER fingerprints (certmodel.CertMemo), so a repeated chain costs a
//     fingerprint and a lookup per certificate, not a parse.
//   - Every endpoint carries its own latency histogram, in-flight gauge,
//     and request counter; the verdict endpoint additionally counts
//     admitted vs completed requests, the pair a graceful drain compares to
//     prove nothing in flight was dropped.
package chainserved

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/chainfix"
	"chainchaos/internal/clients"
	"chainchaos/internal/compliance"
	"chainchaos/internal/core"
	"chainchaos/internal/obs"
	"chainchaos/internal/parallel"
	"chainchaos/internal/report"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/tlsscan"
)

// Defaults for the zero Config fields.
const (
	// DefaultMaxBody caps request bodies at 1 MiB — a chain of the paper's
	// worst observed length (151 certificates) PEM-encodes well under this.
	DefaultMaxBody = 1 << 20
	// DefaultMaxInFlight bounds concurrent verdict requests.
	DefaultMaxInFlight = 64
	// DefaultScanTimeout bounds one live-scan handshake.
	DefaultScanTimeout = 5 * time.Second
)

// Config wires a Server.
type Config struct {
	// Roots anchors path construction, completeness analysis, and repair.
	// Required.
	Roots *rootstore.Store
	// AIA, when non-nil, resolves caIssuers URIs for completeness recovery,
	// AIA-capable client models, and repair completion. Each request binds
	// the fetcher to its own context, so a cancelled request frees its
	// in-flight fetch.
	AIA *aia.HTTPFetcher
	// Workers bounds the per-request client-matrix fan-out (0 = GOMAXPROCS).
	Workers int
	// MaxInFlight is the admission-control width: verdict requests beyond
	// it are shed with 429 (0 = DefaultMaxInFlight).
	MaxInFlight int
	// MaxBody caps the request body in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// ScanTimeout bounds a live-scan connection attempt (0 = 5s).
	ScanTimeout time.Duration
	// Now is the validation time for the client models; the zero time
	// disables validity checks, making verdicts purely structural and
	// therefore stable for the cache's whole lifetime.
	Now time.Time
	// Metrics receives the service's counters, gauges, and histograms.
	// May be nil (all instrumentation becomes no-ops).
	Metrics *obs.Registry
}

// Server answers verdict requests. Create with New; the zero value is not
// usable.
type Server struct {
	cfg   Config
	trust core.Trust
	// memos holds one memo per KeepRoot value: the two repair
	// configurations are distinct gradings that never share an entry.
	memos [2]*core.Memo[verdict]
	// certs parses pasted PEM bodies. It lives and dies with the server,
	// so two servers in one process never share or evict each other's
	// entries.
	certs   certmodel.CertMemo
	scanner *tlsscan.Scanner
	sem     chan struct{}

	// Drain accounting: admitted counts requests past admission control,
	// completed counts responses fully written. After a graceful drain the
	// two must match — that equality is the "zero dropped in-flight" proof.
	admitted  *obs.Counter
	completed *obs.Counter
	shed      *obs.Counter
	cacheable *obs.Counter
}

// verdict is what the service memoizes beside the order and completeness
// reports: the list digest in hex and the answer's domain-independent tail
// (order, completeness, client matrix, repair), encoded once when the
// grading is stored. The hostname's only influence on the tail is the
// leaf-match bit, which is part of the memo key.
type verdict struct {
	digest string
	tail   []byte
}

// New builds a Server from cfg, applying defaults and registering metrics.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.ScanTimeout <= 0 {
		cfg.ScanTimeout = DefaultScanTimeout
	}
	s := &Server{
		cfg: cfg,
		trust: core.Trust{
			Roots:    cfg.Roots,
			Now:      cfg.Now,
			Hostname: true,
			Metrics:  cfg.Metrics,
		},
		sem: make(chan struct{}, cfg.MaxInFlight),
		scanner: &tlsscan.Scanner{
			Timeout: cfg.ScanTimeout,
			Metrics: cfg.Metrics,
		},
		admitted:  cfg.Metrics.Counter("chainserved.verdict.admitted"),
		completed: cfg.Metrics.Counter("chainserved.verdict.completed"),
		shed:      cfg.Metrics.Counter("chainserved.verdict.shed"),
		cacheable: cfg.Metrics.Counter("chainserved.verdict.cached_responses"),
	}
	for i := range s.memos {
		s.memos[i] = core.NewMemo[verdict]("chainserved.vcache", s.trust)
	}
	return s
}

// Handler returns the service mux:
//
//	POST /v1/verdict  — grade a chain (PEM body or live-scan target)
//	GET  /healthz     — liveness + in-flight count
//	GET  /metrics     — the registry snapshot as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/verdict", s.instrument("verdict", s.handleVerdict))
	mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// Admitted returns the number of verdict requests accepted past admission
// control, Completed the number fully answered. A drained server reports
// equal values. Shed counts requests turned away with 429.
func (s *Server) Admitted() int64  { return s.admitted.Value() }
func (s *Server) Completed() int64 { return s.completed.Value() }
func (s *Server) Shed() int64      { return s.shed.Value() }

// instrument wraps an endpoint with its per-endpoint request counter,
// in-flight gauge, and latency histogram (chainserved.<name>.requests /
// .inflight / .latency).
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	requests := s.cfg.Metrics.Counter("chainserved." + name + ".requests")
	inflight := s.cfg.Metrics.Gauge("chainserved." + name + ".inflight")
	latency := s.cfg.Metrics.Histogram("chainserved."+name+".latency", obs.LatencyBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		start := s.cfg.Metrics.Time()
		h(w, r)
		latency.ObserveDuration(s.cfg.Metrics.Time().Sub(start))
		inflight.Add(-1)
	})
}

// VerdictRequest is the POST /v1/verdict body. Exactly one of PEM and
// Target must be set.
type VerdictRequest struct {
	// Domain is the hostname the chain serves; it drives leaf placement
	// and hostname validation. Defaults to the Target's host for live
	// scans; may be empty for pasted PEM (the leaf then grades as
	// mismatched, never matched).
	Domain string `json:"domain"`
	// PEM is the server-supplied certificate list, leaf first, as a PEM
	// bundle.
	PEM string `json:"pem,omitempty"`
	// Target is a host:port to live-scan instead of supplying PEM.
	Target string `json:"target,omitempty"`
	// KeepRoot retains the self-signed root in the repaired chain.
	KeepRoot bool `json:"keep_root,omitempty"`
}

// ClientVerdict is one cell of the construction matrix.
type ClientVerdict struct {
	Client string `json:"client"`
	Kind   string `json:"kind"`
	OK     bool   `json:"ok"`
}

// OrderJSON summarizes the issuance-order analysis.
type OrderJSON struct {
	Compliant     bool `json:"compliant"`
	Duplicates    bool `json:"duplicates"`
	Irrelevant    bool `json:"irrelevant"`
	MultiplePaths bool `json:"multiple_paths"`
	Reversed      bool `json:"reversed"`
}

// CompletenessJSON summarizes the completeness analysis.
type CompletenessJSON struct {
	Class                string `json:"class"`
	AIARecoverable       bool   `json:"aia_recoverable,omitempty"`
	MissingIntermediates int    `json:"missing_intermediates,omitempty"`
}

// Repair is the chainfix result rendered for the wire.
type Repair struct {
	Actions   []string `json:"actions"`
	PEM       string   `json:"pem"`
	Compliant bool     `json:"compliant"`
}

// VerdictResponse is the POST /v1/verdict answer.
type VerdictResponse struct {
	Domain        string           `json:"domain"`
	Source        string           `json:"source"` // "pem" or "scan"
	Digest        string           `json:"digest"`
	Cached        bool             `json:"cached"`
	Compliant     bool             `json:"compliant"`
	LeafPlacement string           `json:"leaf_placement"`
	Order         OrderJSON        `json:"order"`
	Completeness  CompletenessJSON `json:"completeness"`
	Matrix        []ClientVerdict  `json:"matrix"`
	Repair        *Repair          `json:"repair,omitempty"`
	RepairError   string           `json:"repair_error,omitempty"`
}

// ErrorBody is the structured error envelope every failure answers with.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorJSON struct {
	Error ErrorBody `json:"error"`
}

// Error codes.
const (
	CodeBadRequest   = "bad_request"
	CodeBadPEM       = "bad_pem"
	CodeBodyTooLarge = "body_too_large"
	CodeOverloaded   = "overloaded"
	CodeScanDial     = "scan_dial"
	CodeScanShake    = "scan_handshake"
	CodeCancelled    = "cancelled"
)

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{Error: ErrorBody{Code: code, Message: msg}}) //nolint:errcheck // response write
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response write
}

// handleHealthz answers liveness probes with the current verdict in-flight
// count (admission occupancy, not the HTTP-level gauge).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":   "ok",
		"inflight": len(s.sem),
	})
}

// handleMetrics serves the registry snapshot with the process counters
// (signature checks, peak RSS) recorded into it first; a nil registry serves
// an empty snapshot so probes need not branch.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.cfg.Metrics.RecordProcess()
	data, err := s.cfg.Metrics.Snapshot().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // response write
}

// handleVerdict is the service's reason to exist: admission control, body
// decode, chain acquisition (PEM or live scan), grading, and the response.
func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "POST only")
		return
	}

	// Admission: take a slot or shed. Shedding immediately (no queue wait)
	// keeps the 429 cheap and the Retry-After honest — by the time the
	// client retries, a slot has very likely turned over.
	select {
	case s.sem <- struct{}{}:
	default:
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("verdict queue full (%d in flight); retry shortly", cap(s.sem)))
		return
	}
	s.admitted.Inc()
	defer func() {
		s.completed.Inc()
		<-s.sem
	}()

	buf := bodyBufs.Get().(*bodyBuf)
	defer buf.release()
	req, pem, err := decodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), buf)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBody))
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if (len(pem) == 0) == (req.Target == "") {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			`exactly one of "pem" and "target" must be set`)
		return
	}

	var list []*certmodel.Certificate
	source := "pem"
	if len(pem) > 0 {
		list, err = s.certs.ParsePEMBundle(pem)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadPEM, err.Error())
			return
		}
	} else {
		source = "scan"
		host, _, err := net.SplitHostPort(req.Target)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("target %q is not host:port: %v", req.Target, err))
			return
		}
		if req.Domain == "" {
			req.Domain = host
		}
		res := s.scanner.Scan(r.Context(), tlsscan.Target{Addr: req.Target, Domain: req.Domain})
		if res.Err != nil {
			code, status := scanError(res.Cause)
			writeError(w, status, code,
				fmt.Sprintf("scan %s: %v", req.Target, res.Err))
			return
		}
		list = res.List
	}
	if len(list) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadPEM, "no certificates in input")
		return
	}

	rep, v, hit := s.grade(r.Context(), list, req.Domain, req.KeepRoot)
	head := appendHead(make([]byte, 0, 256), req.Domain, source, v.digest, hit, rep)
	// The head, then the stored tail: net/http frames the two writes as it
	// framed one encoder write, with a Content-Length while the body fits
	// its write buffer and chunked beyond.
	w.Header().Set("Content-Type", "application/json")
	w.Write(head)   //nolint:errcheck // response write
	w.Write(v.tail) //nolint:errcheck // response write
}

// appendHead appends the per-request fields of the VerdictResponse JSON, in
// its field order, to b: everything before the stored tail.
func appendHead(b []byte, domain, source, digest string, cached bool, rep compliance.Report) []byte {
	b = report.AppendJSONString(append(b, `{"domain":`...), domain)
	b = report.AppendJSONString(append(b, `,"source":`...), source)
	b = append(append(append(b, `,"digest":"`...), digest...), '"')
	b = strconv.AppendBool(append(b, `,"cached":`...), cached)
	b = strconv.AppendBool(append(b, `,"compliant":`...), rep.Compliant())
	return report.AppendJSONString(append(b, `,"leaf_placement":`...), rep.Leaf.String())
}

// scanError maps a scan failure cause to its wire code and HTTP status:
// transport losses are upstream failures (502), cancellations follow the
// client (499, the de-facto "client closed request" status).
func scanError(cause tlsscan.ErrorCause) (string, int) {
	switch cause {
	case tlsscan.CauseDial:
		return CodeScanDial, http.StatusBadGateway
	case tlsscan.CauseCancelled:
		return CodeCancelled, 499
	default:
		return CodeScanShake, http.StatusBadGateway
	}
}

// grade runs the full analysis over one acquired chain, through the memo of
// its repair configuration, and reports whether the memo answered it.
func (s *Server) grade(ctx context.Context, list []*certmodel.Certificate, domain string, keepRoot bool) (compliance.Report, verdict, bool) {
	memo := s.memos[0]
	if keepRoot {
		memo = s.memos[1]
	}
	rep, v, hit := memo.Grade(ctx, list, domain, func() (compliance.Report, verdict) {
		return s.compute(ctx, list, domain, keepRoot)
	})
	if hit {
		s.cacheable.Inc()
	}
	return rep, v, hit
}

// verdictTail is the domain-independent end of VerdictResponse: its fields
// after leaf_placement, with the same names, types and order, so that the
// head appendHead writes followed by this encoding is the VerdictResponse
// encoding.
type verdictTail struct {
	Order        OrderJSON        `json:"order"`
	Completeness CompletenessJSON `json:"completeness"`
	Matrix       []ClientVerdict  `json:"matrix"`
	Repair       *Repair          `json:"repair,omitempty"`
	RepairError  string           `json:"repair_error,omitempty"`
}

// newVerdict encodes the memoized part of the answer for a grading of list:
// t's matrix and repair with rep's order and completeness.
func newVerdict(list []*certmodel.Certificate, rep compliance.Report, t verdictTail) verdict {
	t.Order = OrderJSON{
		Compliant:     !rep.Order.NonCompliant(),
		Duplicates:    rep.Order.HasDuplicates,
		Irrelevant:    rep.Order.HasIrrelevant,
		MultiplePaths: rep.Order.MultiplePaths,
		Reversed:      rep.Order.ReversedAny,
	}
	t.Completeness = CompletenessJSON{
		Class:                rep.Completeness.Class.String(),
		AIARecoverable:       rep.Completeness.AIARecoverable,
		MissingIntermediates: rep.Completeness.MissingIntermediates,
	}
	tail, _ := json.Marshal(t) // strings, bools and ints always marshal
	// The tail continues the head's object: its opening brace becomes the
	// comma after leaf_placement, and it ends with the newline json.Encoder
	// writes after a value.
	tail[0] = ','
	digest := certmodel.ListDigest(list)
	return verdict{digest: hex.EncodeToString(digest[:]), tail: append(tail, '\n')}
}

// compute performs the uncached analysis: order + completeness, the
// eight-client construction matrix fanned out over the worker pool, and the
// chainfix repair. Each miss gets its own Grader, because its AIA fetcher is
// bound to the request context throughout.
func (s *Server) compute(ctx context.Context, list []*certmodel.Certificate, domain string, keepRoot bool) (compliance.Report, verdict) {
	trust := s.trust
	if s.cfg.AIA != nil {
		trust.Fetcher = s.cfg.AIA.WithContext(ctx)
	}
	g := trust.Grader()
	defer g.Close()
	report := g.Analyze(list, domain)

	// The matrix: Builds for different clients run in parallel over the
	// bounded pool. This is the one grading that does not take
	// Grader.Verdicts, which builds the clients one after another: a request
	// waits on its eight builds, and Config.Workers (which perfbench sets)
	// spreads them.
	var t verdictTail
	matrix, err := parallel.Map(ctx, s.cfg.Workers, core.Profiles, func(i int, p clients.Profile) ClientVerdict {
		return ClientVerdict{Client: p.Name, Kind: p.Kind.String(), OK: g.Class(i, list, domain) == core.VerdictOK}
	})
	if err == nil {
		// A cancelled fan-out leaves no matrix; the memo discards the
		// grading.
		t.Matrix = matrix
	}

	fixer := &chainfix.Fixer{Roots: s.cfg.Roots, Fetcher: trust.Fetcher, KeepRoot: keepRoot}
	res, err := fixer.Fix(list, domain)
	var pem []byte
	if err == nil {
		pem, err = certmodel.EncodePEM(res.List)
	}
	if err != nil {
		t.RepairError = err.Error()
		return report, newVerdict(list, report, t)
	}
	actions := make([]string, len(res.Actions))
	for i, a := range res.Actions {
		actions[i] = a.String()
	}
	t.Repair = &Repair{
		Actions:   actions,
		PEM:       string(pem),
		Compliant: res.Report.Compliant(),
	}
	return report, newVerdict(list, report, t)
}

package chainserved

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
	"chainchaos/internal/rootstore"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// fixture builds one PKI and a server over it: root → ca2 → ca1 → leaf for
// "served.example", plus the raw materials for broken chains.
type fixture struct {
	roots *rootstore.Store
	leaf  *certgen.Leaf
	ca1   *certgen.Authority
	ca2   *certgen.Authority
	root  *certgen.Authority
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	root, err := certgen.NewRoot("Served Root")
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := root.NewIntermediate("Served CA 2")
	if err != nil {
		t.Fatal(err)
	}
	ca1, err := ca2.NewIntermediate("Served CA 1")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca1.NewLeaf("served.example")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		roots: rootstore.NewWith("test", root.Cert),
		leaf:  leaf, ca1: ca1, ca2: ca2, root: root,
	}
}

// pem encodes a chain for the request body.
func (f *fixture) pem(t testing.TB, list ...*certmodel.Certificate) string {
	t.Helper()
	data, err := certmodel.EncodePEM(list)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func (f *fixture) server(cfg Config) *Server {
	if cfg.Roots == nil {
		cfg.Roots = f.roots
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now.IsZero() {
		cfg.Now = certgen.Reference
	}
	return New(cfg)
}

// post submits a verdict request and returns the recorder.
func post(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	return postRaw(t, h, []byte(body))
}

// postRaw submits raw bytes as the verdict request body.
func postRaw(t testing.TB, h http.Handler, raw []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/verdict", bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// sameApartFromCached reports whether a repeat's body equals the first
// answer's once its cached flag is cleared.
func sameApartFromCached(first, again []byte) bool {
	return bytes.Equal(bytes.Replace(again, []byte(`"cached":true`), []byte(`"cached":false`), 1), first)
}

// sameAnswer reports whether two answers are equal apart from either one's
// cached flag: on a server that many inputs share, an input's first answer
// may itself be read from the memo.
func sameAnswer(a, b []byte) bool {
	computed := func(x []byte) []byte {
		return bytes.Replace(x, []byte(`"cached":true`), []byte(`"cached":false`), 1)
	}
	return bytes.Equal(computed(a), computed(b))
}

// decodeError asserts a structured error envelope with the given code.
func decodeError(t *testing.T, w *httptest.ResponseRecorder, wantStatus int, wantCode string) {
	t.Helper()
	if w.Code != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, wantStatus, w.Body)
	}
	var e errorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v (%s)", err, w.Body)
	}
	if e.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", e.Error.Code, wantCode, e.Error.Message)
	}
	if e.Error.Message == "" {
		t.Fatal("error message is empty")
	}
}

func body(t testing.TB, req VerdictRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHandlerErrors covers the request-validation table: every rejection is
// a structured JSON error with the right status and code.
func TestHandlerErrors(t *testing.T) {
	f := newFixture(t)
	h := f.server(Config{MaxBody: 4096}).Handler()
	okPEM := f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed-json", "{not json", http.StatusBadRequest, CodeBadRequest},
		{"neither-pem-nor-target", `{"domain":"x"}`, http.StatusBadRequest, CodeBadRequest},
		{"both-pem-and-target", body(t, VerdictRequest{PEM: okPEM, Target: "x:443"}), http.StatusBadRequest, CodeBadRequest},
		{"bad-pem", `{"pem":"-----BEGIN CERTIFICATE-----\nZZZZ\n-----END CERTIFICATE-----\n"}`, http.StatusBadRequest, CodeBadPEM},
		{"empty-pem-bundle", `{"pem":"no pem blocks here"}`, http.StatusBadRequest, CodeBadPEM},
		{"bad-target", `{"target":"no-port-here"}`, http.StatusBadRequest, CodeBadRequest},
		{"oversized-body", body(t, VerdictRequest{Domain: "served.example",
			PEM: okPEM + strings.Repeat(" ", 8192)}), http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decodeError(t, post(t, h, tc.body), tc.wantStatus, tc.wantCode)
		})
	}

	t.Run("method-not-allowed", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/v1/verdict", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		decodeError(t, w, http.StatusMethodNotAllowed, CodeBadRequest)
	})
}

// TestVerdictCompliantChain asserts the happy path end to end: a compliant
// deployment grades compliant, all eight clients accept it, and the repair
// is a no-op-shaped success.
func TestVerdictCompliantChain(t *testing.T) {
	f := newFixture(t)
	h := f.server(Config{}).Handler()

	w := post(t, h, body(t, VerdictRequest{
		Domain: "served.example",
		PEM:    f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert),
	}))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp VerdictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Compliant {
		t.Errorf("compliant = false, want true: %+v", resp)
	}
	if resp.Source != "pem" || resp.Cached || resp.Digest == "" {
		t.Errorf("source/cached/digest = %q/%v/%q", resp.Source, resp.Cached, resp.Digest)
	}
	if resp.LeafPlacement != "correct-placed/matched" {
		t.Errorf("leaf placement = %q", resp.LeafPlacement)
	}
	if len(resp.Matrix) != 8 {
		t.Fatalf("matrix has %d clients, want 8", len(resp.Matrix))
	}
	for _, v := range resp.Matrix {
		if !v.OK {
			t.Errorf("client %s rejects a compliant chain", v.Client)
		}
	}
	if resp.Repair == nil || !resp.Repair.Compliant {
		t.Fatalf("repair = %+v, want compliant repair", resp.Repair)
	}
}

// TestVerdictBrokenChain submits the doctor example's pathology — reversed
// bundle, duplicated leaf, stray root — and expects a non-compliant verdict
// with a working repair whose output parses and grades compliant.
func TestVerdictBrokenChain(t *testing.T) {
	f := newFixture(t)
	h := f.server(Config{}).Handler()
	stray, err := certgen.NewRoot("Stray Root")
	if err != nil {
		t.Fatal(err)
	}

	sick := f.pem(t, f.leaf.Cert, f.leaf.Cert, f.root.Cert, f.ca2.Cert, f.ca1.Cert, stray.Cert)
	w := post(t, h, body(t, VerdictRequest{Domain: "served.example", PEM: sick}))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp VerdictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Compliant {
		t.Error("broken chain graded compliant")
	}
	if !resp.Order.Duplicates || !resp.Order.Irrelevant || !resp.Order.Reversed {
		t.Errorf("order analysis missed defects: %+v", resp.Order)
	}
	if resp.Repair == nil {
		t.Fatalf("no repair; error %q", resp.RepairError)
	}
	if !resp.Repair.Compliant || len(resp.Repair.Actions) == 0 {
		t.Errorf("repair = %+v", resp.Repair)
	}
	repaired, err := certmodel.ParsePEMBundle([]byte(resp.Repair.PEM))
	if err != nil {
		t.Fatalf("repaired PEM does not parse: %v", err)
	}
	// Recommended shape: leaf, ca1, ca2 — root stripped.
	if len(repaired) != 3 || !repaired[0].MatchesDomain("served.example") {
		t.Errorf("repaired chain has %d certs, leaf %q", len(repaired), repaired[0].Subject)
	}
}

// TestVerdictCacheHitRate submits one chain repeatedly and asserts the
// memoization contract: first miss, then hits; cached responses are flagged
// and still carry the full verdict; the per-request leaf placement stays
// correct across different domains sharing one cache entry scope.
func TestVerdictCacheHitRate(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	h := f.server(Config{Metrics: reg}).Handler()
	chain := body(t, VerdictRequest{Domain: "served.example",
		PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)})

	const n = 5
	for i := 0; i < n; i++ {
		w := post(t, h, chain)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
		var resp VerdictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached != (i > 0) {
			t.Errorf("request %d: cached = %v", i, resp.Cached)
		}
		if !resp.Compliant || len(resp.Matrix) != 8 {
			t.Errorf("request %d: degraded cached verdict: %+v", i, resp)
		}
	}
	snap := reg.Snapshot()
	if hits := snap.Counters["chainserved.vcache.hits"]; hits != n-1 {
		t.Errorf("vcache.hits = %d, want %d", hits, n-1)
	}
	if misses := snap.Counters["chainserved.vcache.misses"]; misses != 1 {
		t.Errorf("vcache.misses = %d, want 1", misses)
	}

	// A mismatched domain flips the leaf-match key bit: new entry, and the
	// per-request leaf placement reflects the new domain.
	w := post(t, h, body(t, VerdictRequest{Domain: "other.example",
		PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)}))
	var resp VerdictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("mismatched-domain request must not share the matched-domain entry")
	}
	if resp.LeafPlacement != "correct-placed/mismatched" {
		t.Errorf("leaf placement = %q", resp.LeafPlacement)
	}
}

// TestVerdictKeepRootSeparate: keep_root changes the repair, so the two
// settings on one chain are distinct gradings that never share an entry.
func TestVerdictKeepRootSeparate(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	h := f.server(Config{Metrics: reg}).Handler()
	chain := f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert, f.root.Cert)

	repairs := map[bool]string{}
	for _, keepRoot := range []bool{false, true, false, true} {
		w := post(t, h, body(t, VerdictRequest{Domain: "served.example", PEM: chain, KeepRoot: keepRoot}))
		if w.Code != http.StatusOK {
			t.Fatalf("keep_root=%v: status %d, body %s", keepRoot, w.Code, w.Body)
		}
		var resp VerdictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Repair == nil {
			t.Fatalf("keep_root=%v: no repair; error %q", keepRoot, resp.RepairError)
		}
		if seen, ok := repairs[keepRoot]; ok {
			if !resp.Cached || resp.Repair.PEM != seen {
				t.Errorf("keep_root=%v repeat: cached=%v, repair changed", keepRoot, resp.Cached)
			}
			continue
		}
		if resp.Cached {
			t.Errorf("keep_root=%v first request was served from the other setting's entry", keepRoot)
		}
		repairs[keepRoot] = resp.Repair.PEM
	}
	if repairs[false] == repairs[true] {
		t.Error("keep_root false and true repaired to the same chain")
	}
	if n := reg.Snapshot().Counters["chainserved.vcache.inserts"]; n != 2 {
		t.Errorf("vcache.inserts = %d, want 2", n)
	}
}

// FuzzVerdictPEM posts arbitrary PEM bodies for arbitrary domains, without
// AIA, to one server shared by every input, as a daemon's is. The service
// must answer 200 or 400, never panic; a 200 carries the eight-client
// matrix, and resending the body answers the same bytes apart from the
// cached flag, whether the first answer was computed or read from what an
// earlier input left in the memos.
func FuzzVerdictPEM(fz *testing.F) {
	f := newFixture(fz)
	for _, chain := range [][]*certmodel.Certificate{
		{f.leaf.Cert, f.ca1.Cert, f.ca2.Cert},
		{f.leaf.Cert, f.ca2.Cert, f.ca1.Cert},
		{f.leaf.Cert, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert},
		{f.leaf.Cert, f.ca2.Cert},
	} {
		fz.Add("served.example", f.pem(fz, chain...))
	}
	h := f.server(Config{MaxBody: 16 << 20}).Handler()
	fz.Fuzz(func(t *testing.T, domain, pem string) {
		req := body(t, VerdictRequest{Domain: domain, PEM: pem})
		first := post(t, h, req)
		switch first.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d, body %s", first.Code, first.Body)
		}
		var resp VerdictResponse
		if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Matrix) != 8 {
			t.Fatalf("matrix has %d rows, want 8", len(resp.Matrix))
		}
		again := post(t, h, req)
		if again.Code != http.StatusOK {
			t.Fatalf("repeat status %d", again.Code)
		}
		if !sameAnswer(first.Body.Bytes(), again.Body.Bytes()) {
			t.Errorf("repeat answered differently:\n%s\n%s", first.Body, again.Body)
		}
	})
}

// exemplars builds the defect fixtures of cmd/chainserved -exemplars over
// f's PKI, by file name: the compliant chain and the paper's I-1…I-4.
func (f *fixture) exemplars(t testing.TB) map[string][]*certmodel.Certificate {
	t.Helper()
	stale, err := f.ca1.NewLeaf("served.example",
		certgen.WithValidity(certgen.Reference.AddDate(-2, 0, 0), certgen.Reference.AddDate(-1, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	stray, err := certgen.NewRoot("Stray Root")
	if err != nil {
		t.Fatal(err)
	}
	long := []*certmodel.Certificate{f.leaf.Cert}
	for len(long) < 16 {
		long = append(long, f.ca1.Cert)
	}
	return map[string][]*certmodel.Certificate{
		"ok.pem":            {f.leaf.Cert, f.ca1.Cert, f.ca2.Cert},
		"i1-reversed.pem":   {f.leaf.Cert, f.ca2.Cert, f.ca1.Cert},
		"i2-long-list.pem":  append(long, f.ca2.Cert),
		"i3-polluted.pem":   {f.leaf.Cert, f.leaf.Cert, stale.Cert, f.root.Cert, f.ca2.Cert, f.ca1.Cert, stray.Cert},
		"i4-incomplete.pem": {f.leaf.Cert},
	}
}

// FuzzVerdictRequest posts arbitrary raw request bodies, without AIA, to one
// server shared by every input, whose body cap is 64 KiB. The service must
// answer 200, 400 or 413
// and never panic; every refusal is the structured error envelope with a
// known code; a 200 carries the eight-client matrix in exactly the bytes the
// reflective encoder writes for the decoded answer; and resending the body
// answers the same bytes apart from the cached flag. A body that names a
// well-formed live-scan target is skipped: it would dial whatever it names.
func FuzzVerdictRequest(fz *testing.F) {
	f := newFixture(fz)
	exemplars := f.exemplars(fz)
	names := make([]string, 0, len(exemplars))
	for name := range exemplars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pem := f.pem(fz, exemplars[name]...)
		fz.Add([]byte(body(fz, VerdictRequest{Domain: "served.example", PEM: pem})))
	}
	quoted, err := json.Marshal(f.pem(fz, exemplars["ok.pem"]...))
	if err != nil {
		fz.Fatal(err)
	}
	pem := string(quoted)
	for _, raw := range []string{
		`{"domain":"a<b>&\"c\\","pem":` + pem + `}`,
		`{"domain":"line\u2028para\u2029","pem":` + pem + `}`,
		"{\"domain\":\"\xff\xfe.example\",\"pem\":" + pem + "}",
		`{"domain":"served.example","PEM":` + pem + `}`,
		`{"pem":"not pem","domain":"x","pem":` + pem + `,"domain":"served.example"}`,
		`{"domain":"served.example","keep_root":true,"pem":` + pem + `}`,
		`{"domain":"served.example","pem":` + pem + `} trailing {"pem":""}`,
		`{"target":"no-port-here"}`,
		`{"domain":7,"pem":` + pem + `}`,
		`{"pem":"` + strings.Repeat("A", 70<<10) + `"}`,
		``,
		`{`,
	} {
		fz.Add([]byte(raw))
	}
	codes := map[string]bool{CodeBadRequest: true, CodeBadPEM: true, CodeBodyTooLarge: true}
	h := f.server(Config{MaxBody: 64 << 10}).Handler()
	fz.Fuzz(func(t *testing.T, raw []byte) {
		var req VerdictRequest
		if json.NewDecoder(bytes.NewReader(raw)).Decode(&req) == nil && req.PEM == "" && req.Target != "" {
			if _, _, err := net.SplitHostPort(req.Target); err == nil {
				return
			}
		}
		first := postRaw(t, h, raw)
		switch first.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var e errorJSON
			if err := json.Unmarshal(first.Body.Bytes(), &e); err != nil {
				t.Fatalf("status %d body is not the error envelope: %v (%s)", first.Code, err, first.Body)
			}
			if !codes[e.Error.Code] || e.Error.Message == "" {
				t.Fatalf("status %d: error %+v", first.Code, e.Error)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d, body %s", first.Code, first.Body)
		}
		var resp VerdictResponse
		if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Matrix) != 8 {
			t.Fatalf("matrix has %d rows, want 8", len(resp.Matrix))
		}
		var reflected bytes.Buffer
		if err := json.NewEncoder(&reflected).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Body.Bytes(), reflected.Bytes()) {
			t.Fatalf("answer differs from the reflective encoding:\n%s\n%s", first.Body, reflected.Bytes())
		}
		again := postRaw(t, h, raw)
		if again.Code != http.StatusOK || !sameAnswer(first.Body.Bytes(), again.Body.Bytes()) {
			t.Errorf("repeat answered %d differently:\n%s\n%s", again.Code, first.Body, again.Body)
		}
	})
}

// TestVerdictAfterMemoEviction floods one server with more new leaves than
// its DER memo holds, then repeats the first chain: the answer is the first
// one apart from the cached flag. The exemplar bundles, whose repeated
// blocks come back from the memo as one certificate, keep reporting their
// duplicates.
func TestVerdictAfterMemoEviction(t *testing.T) {
	f := newFixture(t)
	h := f.server(Config{}).Handler()
	chain := body(t, VerdictRequest{Domain: "served.example",
		PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)})
	first := post(t, h, chain)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", first.Code, first.Body)
	}

	// Twice the memo's 256 entries, sixteen new leaves per bundle.
	const leaves, perBundle = 512, 16
	for i := 0; i < leaves; i += perBundle {
		var bundle []*certmodel.Certificate
		for j := i; j < i+perBundle; j++ {
			leaf, err := f.ca1.NewLeaf(fmt.Sprintf("flood-%d.example", j))
			if err != nil {
				t.Fatal(err)
			}
			bundle = append(bundle, leaf.Cert)
		}
		if w := post(t, h, body(t, VerdictRequest{Domain: "flood.example", PEM: f.pem(t, bundle...)})); w.Code != http.StatusOK {
			t.Fatalf("flood bundle %d: status %d, body %s", i/perBundle, w.Code, w.Body)
		}
	}

	again := post(t, h, chain)
	if again.Code != http.StatusOK || !sameApartFromCached(first.Body.Bytes(), again.Body.Bytes()) {
		t.Fatalf("after eviction the chain answered %d differently:\n%s\n%s", again.Code, first.Body, again.Body)
	}
	exemplars := f.exemplars(t)
	for _, name := range []string{"i2-long-list.pem", "i3-polluted.pem"} {
		for i := 0; i < 2; i++ { // a parse, then memo hits
			w := post(t, h, body(t, VerdictRequest{Domain: "served.example", PEM: f.pem(t, exemplars[name]...)}))
			var resp VerdictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: %v (%s)", name, err, w.Body)
			}
			if !resp.Order.Duplicates || resp.Compliant {
				t.Errorf("%s request %d: order %+v, compliant %v", name, i, resp.Order, resp.Compliant)
			}
		}
	}
}

// TestConcurrentVerdicts has eight goroutines post a mix of repeated and new
// chains through one handler, so the DER memo and the verdict memos are read
// and written at once (run it under -race). Every repeat answers its chain's
// first bytes apart from the cached flag.
func TestConcurrentVerdicts(t *testing.T) {
	f := newFixture(t)
	h := f.server(Config{}).Handler()
	repeated := []string{
		body(t, VerdictRequest{Domain: "served.example", PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)}),
		body(t, VerdictRequest{Domain: "served.example", PEM: f.pem(t, f.leaf.Cert, f.ca2.Cert, f.ca1.Cert)}),
		body(t, VerdictRequest{Domain: "served.example", PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert), KeepRoot: true}),
	}
	want := make([][]byte, len(repeated))
	for i, b := range repeated {
		w := post(t, h, b)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d, body %s", w.Code, w.Body)
		}
		want[i] = w.Body.Bytes()
	}

	const workers, rounds = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if r%4 == 3 { // a never-seen chain
					leaf, err := f.ca1.NewLeaf(fmt.Sprintf("c%d-%d.example", g, r))
					if err != nil {
						t.Error(err)
						return
					}
					w := post(t, h, body(t, VerdictRequest{Domain: "served.example",
						PEM: f.pem(t, leaf.Cert, f.ca1.Cert, f.ca2.Cert)}))
					if w.Code != http.StatusOK {
						t.Errorf("new chain: status %d, body %s", w.Code, w.Body)
					}
					continue
				}
				i := (g + r) % len(repeated)
				w := post(t, h, repeated[i])
				if w.Code != http.StatusOK || !sameApartFromCached(want[i], w.Body.Bytes()) {
					t.Errorf("repeat of chain %d answered %d:\n%s\nwant\n%s", i, w.Code, w.Body, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerdictCachedAllocs is the allocation sentinel for the commonest
// request: a cached two-certificate chain, leaf and intermediate. Each
// certificate sits in one of its set's two ways, so the two never evict each
// other and the counts cannot flake on a fingerprint collision. Decoding the
// body through encoding/json and its PEM through pem.Decode cost 47
// allocations and 15,689 bytes, with the recorder's; the canonical decoders
// bring that to 25 and 7,696. Each bound sits about midway: a request whose
// body misses the canonical decoder fails the byte bound, and one lost DER
// memo hit (about 60 allocations) fails both. certmodel's
// TestCertMemoHitAllocs guards the canonical PEM blocks.
func TestVerdictCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	const allocBound, byteBound = 37, 11700
	f := newFixture(t)
	h := f.server(Config{}).Handler()
	req := []byte(body(t, VerdictRequest{Domain: "served.example", PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert)}))
	if w := postRaw(t, h, req); w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	allocs := testing.AllocsPerRun(100, func() { postRaw(t, h, req) })
	if allocs > allocBound {
		t.Errorf("a cached request allocates %.0f times, bound %d", allocs, allocBound)
	}

	// Bytes as AllocsPerRun counts allocations: on one P, after a warm-up.
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	postRaw(t, h, req)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		postRaw(t, h, req)
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRequest > byteBound {
		t.Errorf("a cached request allocates %d bytes, bound %d", perRequest, byteBound)
	}
	t.Logf("a cached request: %.0f allocations, %d bytes", allocs, perRequest)
}

// BenchmarkVerdictCached serves one cached three-certificate request through
// the handler, without sockets: the DER memo lookups, the verdict memo hit
// and the head append, plus request decoding and the recorder.
func BenchmarkVerdictCached(b *testing.B) {
	f := newFixture(b)
	h := f.server(Config{}).Handler()
	req := []byte(body(b, VerdictRequest{Domain: "served.example",
		PEM: f.pem(b, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)}))
	if w := postRaw(b, h, req); w.Code != http.StatusOK {
		b.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		if w := postRaw(b, h, req); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestScanDialFailure live-scans a port that refuses connections and
// expects a structured scan_dial error, not a bare 500.
func TestScanDialFailure(t *testing.T) {
	f := newFixture(t)
	h := f.server(Config{ScanTimeout: 2 * time.Second}).Handler()

	// Reserve a port, then close it: the follow-up dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	w := post(t, h, body(t, VerdictRequest{Target: addr}))
	decodeError(t, w, http.StatusBadGateway, CodeScanDial)
}

// TestAdmissionControl fills the single verdict slot with a live scan
// against a listener that accepts and stalls, then asserts the next request
// is shed with 429 + Retry-After while a healthz probe still answers.
func TestAdmissionControl(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	s := f.server(Config{MaxInFlight: 1, ScanTimeout: 30 * time.Second, Metrics: reg})
	h := s.Handler()

	// The tar pit: accepts TCP, never completes a handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/verdict",
			strings.NewReader(body(t, VerdictRequest{Target: ln.Addr().String()})))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req.WithContext(ctx))
		done <- w
	}()

	// Wait for the scan to occupy the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admitted() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	w := post(t, h, body(t, VerdictRequest{Domain: "served.example",
		PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)}))
	decodeError(t, w, http.StatusTooManyRequests, CodeOverloaded)
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Health stays green while verdicts shed.
	hw := httptest.NewRecorder()
	h.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hw.Code != http.StatusOK {
		t.Errorf("healthz = %d during saturation", hw.Code)
	}

	// Release the tar-pitted request; it reports the cancellation
	// structurally and frees its slot.
	cancel()
	first := <-done
	if first.Code != 499 {
		t.Errorf("cancelled scan status = %d, want 499 (body %s)", first.Code, first.Body)
	}
	if got := reg.Snapshot().Counters["chainserved.verdict.shed"]; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if a, c := s.Admitted(), s.Completed(); a != c {
		t.Errorf("admitted %d != completed %d after release", a, c)
	}
}

// TestGracefulDrain runs the service on a real listener, keeps a burst of
// concurrent verdict requests in flight, shuts the server down mid-burst,
// and asserts the drain contract: every admitted request completes with a
// full response (zero dropped in flight), admitted == completed, Shutdown
// returns cleanly, Serve returns http.ErrServerClosed, and once the client
// drops its idle connections no goroutine of the server or the client
// outlives the test. Run under -race this also exercises the handler's
// concurrency.
func TestGracefulDrain(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	s := f.server(Config{Metrics: reg, MaxInFlight: 64})
	srv := &http.Server{Handler: s.Handler()}
	goroutines := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Distinct chains per goroutine so the burst does real grading work
	// rather than collapsing into one cache entry.
	const n = 24
	bodies := make([]string, n)
	for i := range bodies {
		leaf, err := f.ca1.NewLeaf(fmt.Sprintf("drain-%d.example", i))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body(t, VerdictRequest{
			Domain: fmt.Sprintf("drain-%d.example", i),
			PEM:    f.pem(t, leaf.Cert, f.ca1.Cert, f.ca2.Cert),
		})
	}

	// Fresh connection per request: the transport silently retries requests
	// written on a reused connection the server closed concurrently, which
	// would let one server-side completion show up client-side as an error
	// and break the delivered == Completed() equality below.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	var wg sync.WaitGroup
	type outcome struct {
		status int
		ok     bool // response decoded as a full verdict
		reject bool // connection refused (arrived after drain began)
	}
	results := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post(base+"/v1/verdict", "application/json",
				bytes.NewReader([]byte(bodies[i])))
			if err != nil {
				results[i] = outcome{reject: true}
				return
			}
			defer resp.Body.Close()
			var v VerdictResponse
			decodeErr := json.NewDecoder(resp.Body).Decode(&v)
			results[i] = outcome{
				status: resp.StatusCode,
				ok:     decodeErr == nil && len(v.Matrix) == 8,
			}
		}(i)
	}

	// Begin the drain while the burst is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.Admitted() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("burst never started")
		}
		time.Sleep(time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	delivered := 0
	for i, r := range results {
		switch {
		case r.reject:
			// Arrived after the listener closed — shed at the door, fine.
		case r.status == http.StatusOK && r.ok:
			delivered++
		default:
			t.Errorf("request %d: status %d, full verdict %v — an admitted request was dropped", i, r.status, r.ok)
		}
	}
	if delivered == 0 {
		t.Fatal("no request completed; the drain test proved nothing")
	}
	if a, c := s.Admitted(), s.Completed(); a != c {
		t.Errorf("admitted %d != completed %d after drain", a, c)
	}
	if int64(delivered) != s.Completed() {
		t.Errorf("clients saw %d full responses, server completed %d", delivered, s.Completed())
	}

	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	client.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the drain, baseline %d:\n%s",
				runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestEndpointInstrumentation asserts the per-endpoint histograms and
// gauges exist and observe: nonzero latency counts for every endpoint hit,
// and the in-flight gauges return to zero at rest.
func TestEndpointInstrumentation(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	h := f.server(Config{Metrics: reg}).Handler()

	post(t, h, body(t, VerdictRequest{Domain: "served.example",
		PEM: f.pem(t, f.leaf.Cert, f.ca1.Cert, f.ca2.Cert)}))
	for _, path := range []string{"/healthz", "/metrics"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, w.Code)
		}
		if path != "/metrics" {
			continue
		}
		// The verdict graded real certificates, so the process-wide
		// signature counters must be published beside the registry's own.
		var served obs.Snapshot
		if err := json.Unmarshal(w.Body.Bytes(), &served); err != nil {
			t.Fatal(err)
		}
		if served.Counters["certmodel.sig_verifies"]+served.Counters["certmodel.sig_memo_hits"] == 0 {
			t.Errorf("/metrics publishes no signature checks: %v", served.Counters)
		}
	}

	snap := reg.Snapshot()
	for _, ep := range []string{"verdict", "healthz", "metrics"} {
		hs, ok := snap.Histograms["chainserved."+ep+".latency"]
		if !ok || hs.Count == 0 {
			t.Errorf("endpoint %s: latency histogram missing or empty", ep)
		}
		if got := snap.Gauges["chainserved."+ep+".inflight"]; got != 0 {
			t.Errorf("endpoint %s: inflight gauge = %d at rest", ep, got)
		}
		if snap.Counters["chainserved."+ep+".requests"] == 0 {
			t.Errorf("endpoint %s: request counter is zero", ep)
		}
	}
}

// TestLatencyHistogramFakeClock: endpoint latency must come from the metrics
// registry's injectable clock. A handler that advances a FakeClock by a fixed
// amount per request yields a latency histogram whose count and sum are exact,
// which is impossible to assert against the wall clock.
func TestLatencyHistogramFakeClock(t *testing.T) {
	const (
		requests = 5
		step     = 13 * time.Millisecond
	)
	clock := faults.NewFakeClock(time.Date(2024, 3, 15, 12, 0, 0, 0, time.UTC))
	reg := obs.NewRegistry()
	reg.Now = clock.Now

	f := newFixture(t)
	s := f.server(Config{Metrics: reg})
	// Wrap a trivial handler in the same instrumentation the real endpoints
	// use, with the handler itself standing in for request work: each request
	// "takes" exactly one clock step.
	h := s.instrument("fake", func(w http.ResponseWriter, r *http.Request) {
		clock.Advance(step)
		w.WriteHeader(http.StatusNoContent)
	})
	for i := 0; i < requests; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/fake", nil))
	}

	hist := reg.Histogram("chainserved.fake.latency", obs.LatencyBuckets)
	if hist.Count() != requests {
		t.Fatalf("latency count = %d, want %d", hist.Count(), requests)
	}
	if want := int64(requests) * int64(step); hist.Sum() != want {
		t.Fatalf("latency sum = %d ns, want exactly %d ns", hist.Sum(), want)
	}
}

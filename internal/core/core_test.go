package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/compliance"
	"chainchaos/internal/obs"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/population"
	"chainchaos/internal/revocation"
	"chainchaos/internal/rootstore"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

type env struct {
	root, ca2, ca1, leaf *certmodel.Certificate
	roots                *rootstore.Store
	repo                 *aia.Repository
}

func newEnv() *env {
	root := certmodel.SyntheticRoot("Core Root", base)
	ca2 := certmodel.SyntheticIntermediate("Core CA2", root, base)
	ca1 := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "Core CA1"}, Issuer: ca2.Subject,
		Serial: "1", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.NewSyntheticKey("core-ca1"), SignedBy: certmodel.KeyOf(ca2),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
		AIAIssuerURLs: []string{"http://repo.core/ca2.der"},
	})
	leaf := certmodel.SyntheticLeaf("core.example", "1", ca1, base, base.AddDate(1, 0, 0))
	repo := aia.NewRepository()
	repo.Put("http://repo.core/ca2.der", ca2)
	return &env{root, ca2, ca1, leaf, rootstore.NewWith("core", root), repo}
}

// trust is the env's full client context.
func (e *env) trust() Trust { return Trust{Roots: e.roots, Fetcher: e.repo, Now: base} }

func (e *env) full() []*certmodel.Certificate {
	return []*certmodel.Certificate{e.leaf, e.ca1, e.ca2}
}

// client returns the index of the named profile in Profiles.
func client(t *testing.T, name string) int {
	t.Helper()
	for i, p := range Profiles {
		if p.Name == name {
			return i
		}
	}
	t.Fatalf("no profile %q", name)
	return -1
}

func TestGraderAnalyze(t *testing.T) {
	e := newEnv()
	g := e.trust().Grader()

	if good := g.Analyze(e.full(), "core.example"); !good.Compliant() {
		t.Errorf("compliant deployment graded: %+v", good)
	}
	bad := g.Analyze([]*certmodel.Certificate{e.leaf, e.ca2, e.ca1}, "core.example")
	if bad.Compliant() {
		t.Error("reversed deployment passed the audit")
	}
	if !bad.Order.ReversedAny {
		t.Error("reversal not detected through the grader")
	}
}

func TestClientModels(t *testing.T) {
	e := newEnv()
	tr := e.trust()
	tr.Hostname = true
	g := tr.Grader()
	reversed := []*certmodel.Certificate{e.leaf, e.ca2, e.ca1}

	if !g.Build(client(t, "Chrome"), reversed, "core.example").OK() {
		t.Error("Chrome model should reorder the chain")
	}
	if g.Build(client(t, "MbedTLS"), reversed, "core.example").OK() {
		t.Error("MbedTLS model should fail the reversed chain")
	}

	// A profile outside the matrix wires the same way.
	rec := tr.Builder(clients.Profile{Name: "my-client", Policy: pathbuild.DefaultPolicy()})
	if !rec.Build(reversed, "core.example").OK() {
		t.Error("recommended policy should reorder the chain")
	}

	// AIA completion through the trust's fetcher.
	out := g.Build(client(t, "Chrome"), []*certmodel.Certificate{e.leaf, e.ca1}, "core.example")
	if !out.OK() || out.AIAFetches == 0 {
		t.Errorf("AIA build: ok=%v fetches=%d", out.OK(), out.AIAFetches)
	}
}

// TestGraderHostname: Build hands the domain to validation only when the
// trust checks hostnames.
func TestGraderHostname(t *testing.T) {
	e := newEnv()
	tr := e.trust()
	chrome := client(t, "Chrome")
	if out := tr.Grader().Build(chrome, e.full(), "unrelated.example"); !out.OK() {
		t.Errorf("without Hostname the domain reached validation: %v", Classify(out))
	}
	tr.Hostname = true
	if got := Classify(tr.Grader().Build(chrome, e.full(), "unrelated.example")); got != VerdictDomainMismatch {
		t.Errorf("with Hostname, mismatch = %v", got)
	}
}

// TestTrustBuilderStores: each profile validates against its vendor's store
// when Vendors is set, and against Roots otherwise; the warm preload is
// wired read-only.
func TestTrustBuilderStores(t *testing.T) {
	v := rootstore.NewVendorSet(nil, nil)
	want := map[string]*rootstore.Store{
		"OpenSSL": v.Store(rootstore.Mozilla), "GnuTLS": v.Store(rootstore.Mozilla),
		"MbedTLS": v.Store(rootstore.Mozilla), "Firefox": v.Store(rootstore.Mozilla),
		"CryptoAPI": v.Store(rootstore.Microsoft), "Edge": v.Store(rootstore.Microsoft),
		"Safari": v.Store(rootstore.Apple),
		"Chrome": v.Store(rootstore.Chrome),
	}
	warm := rootstore.New("warm")
	vendored := Trust{Roots: v.Union, Vendors: v, Warm: warm}
	plain := Trust{Roots: v.Union}
	for _, p := range Profiles {
		if got := vendored.Builder(p).Roots; got != want[p.Name] {
			t.Errorf("%s validates against %q, want %q", p.Name, got.Name(), want[p.Name].Name())
		}
		if got := plain.Builder(p).Roots; got != v.Union {
			t.Errorf("%s without vendors validates against %q", p.Name, got.Name())
		}
		if b := vendored.Builder(p); b.Cache != warm {
			t.Errorf("%s: warm preload not wired", p.Name)
		}
	}
}

// TestProfileOf: every client of the matrix is found by its name, in
// place and without allocating; any other name has no profile.
func TestProfileOf(t *testing.T) {
	for i := range Profiles {
		if got := ProfileOf(Profiles[i].Name); got != &Profiles[i] {
			t.Errorf("ProfileOf(%q) = %p, want &Profiles[%d]", Profiles[i].Name, got, i)
		}
	}
	for _, name := range []string{"", "firefox", "Opera"} {
		if got := ProfileOf(name); got != nil {
			t.Errorf("ProfileOf(%q) = %s, want nil", name, got.Name)
		}
	}
	last := Profiles[len(Profiles)-1].Name
	if n := testing.AllocsPerRun(100, func() { ProfileOf(last) }); n != 0 {
		t.Errorf("ProfileOf allocates %.0f times per call", n)
	}
}

func TestClientRevocation(t *testing.T) {
	e := newEnv()
	crl := revocation.NewList()
	crl.Revoke(e.ca1)
	b := Trust{Roots: e.roots, Now: base}.Builder(clients.OpenSSL())
	b.Revocation = crl
	out := b.Build(e.full(), "core.example")
	if out.OK() {
		t.Error("revoked intermediate accepted")
	}
	if Classify(out) != VerdictRevoked {
		t.Errorf("class = %v, want revoked", Classify(out))
	}
}

func TestClassify(t *testing.T) {
	e := newEnv()
	full := e.full()
	build := func(tr Trust, p clients.Profile, list []*certmodel.Certificate, domain string) VerdictClass {
		return Classify(tr.Builder(p).Build(list, domain))
	}

	if got := build(e.trust(), clients.Chrome(), full, "core.example"); got != VerdictOK {
		t.Errorf("healthy = %v", got)
	}
	untrusted := e.trust()
	untrusted.Roots = rootstore.New("empty")
	if got := build(untrusted, clients.Chrome(), full, "core.example"); got != VerdictUnknownIssuer {
		t.Errorf("untrusted = %v", got)
	}
	late := e.trust()
	late.Now = base.AddDate(10, 0, 0)
	if got := build(late, clients.OpenSSL(), full, "core.example"); got != VerdictDateInvalid {
		t.Errorf("expired = %v", got)
	}
	long := append([]*certmodel.Certificate(nil), full...)
	for len(long) <= 16 {
		long = append(long, e.ca2)
	}
	if got := build(Trust{Roots: e.roots}, clients.GnuTLS(), long, "core.example"); got != VerdictRejectedList {
		t.Errorf("long list = %v", got)
	}
	if got := build(Trust{Roots: e.roots, Now: base}, clients.Chrome(), full, "unrelated.example"); got != VerdictDomainMismatch {
		t.Errorf("mismatch = %v", got)
	}
	for v := VerdictOK; v <= VerdictOtherFailure; v++ {
		if v.String() == "" {
			t.Errorf("class %d renders empty", int(v))
		}
	}
}

// memoCase grades lists through one memo, counting the gradings it had to
// compute.
type memoCase struct {
	memo  *Memo[string]
	g     *Grader
	reg   *obs.Registry
	calls int
}

func newMemoCase(tr Trust) *memoCase {
	tr.Metrics = obs.NewRegistry()
	return &memoCase{memo: NewMemo[string]("core.vcache", tr), g: tr.Grader(), reg: tr.Metrics}
}

func (c *memoCase) grade(ctx context.Context, list []*certmodel.Certificate, domain string) (compliance.Report, string, bool) {
	return c.memo.Grade(ctx, list, domain, func() (compliance.Report, string) {
		c.calls++
		return c.g.Analyze(list, domain), "graded for " + domain
	})
}

func (c *memoCase) counter(name string) int64 { return c.reg.Snapshot().Counters["core.vcache."+name] }

// TestMemoSharesAcrossDomains: a second domain presenting the same chain
// reads the first grading, with its own domain and leaf placement.
func TestMemoSharesAcrossDomains(t *testing.T) {
	e := newEnv()
	c := newMemoCase(e.trust())
	ctx := context.Background()

	first, v1, hit1 := c.grade(ctx, e.full(), "core.example")
	second, v2, hit2 := c.grade(ctx, e.full(), "other.example")
	if hit1 || !hit2 || c.calls != 1 {
		t.Fatalf("hits = %v, %v after %d gradings; want a miss then a hit", hit1, hit2, c.calls)
	}
	if v2 != v1 {
		t.Errorf("hit value = %q, want the stored %q", v2, v1)
	}
	if second.Domain != "other.example" {
		t.Errorf("hit Domain = %q", second.Domain)
	}
	if want := compliance.ClassifyLeafPlacement(e.full(), "other.example"); second.Leaf != want || second.Leaf == first.Leaf {
		t.Errorf("hit Leaf = %v, want its own %v (first was %v)", second.Leaf, want, first.Leaf)
	}
	if !reflect.DeepEqual(second.Order, first.Order) || !reflect.DeepEqual(second.Completeness, first.Completeness) {
		t.Error("hit does not carry the stored order and completeness reports")
	}
}

// TestMemoHostnameMatchBit: under Hostname the leaf-match bit splits
// entries; without it a matched and a mismatched domain share one.
func TestMemoHostnameMatchBit(t *testing.T) {
	e := newEnv()
	ctx := context.Background()
	for _, hostname := range []bool{false, true} {
		tr := e.trust()
		tr.Hostname = hostname
		c := newMemoCase(tr)
		c.grade(ctx, e.full(), "core.example")
		_, _, hit := c.grade(ctx, e.full(), "other.example")
		if hit == hostname {
			t.Errorf("Hostname=%v: mismatched domain hit=%v", hostname, hit)
		}
		if _, _, hit := c.grade(ctx, e.full(), "core.example"); !hit {
			t.Errorf("Hostname=%v: repeat of the matched domain missed", hostname)
		}
		if want := map[bool]int64{false: 1, true: 2}[hostname]; c.counter("inserts") != want {
			t.Errorf("Hostname=%v: %d entries, want %d", hostname, c.counter("inserts"), want)
		}
	}
}

// TestMemoCancelledNotStored: a grading whose context is done reaches its
// caller but never the memo.
func TestMemoCancelledNotStored(t *testing.T) {
	e := newEnv()
	c := newMemoCase(e.trust())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, v, hit := c.grade(ctx, e.full(), "core.example"); hit || v == "" {
		t.Fatalf("cancelled grading: value %q, hit %v", v, hit)
	}
	if n := c.counter("inserts"); n != 0 {
		t.Fatalf("cancelled grading stored (%d inserts)", n)
	}
	if _, _, hit := c.grade(context.Background(), e.full(), "core.example"); hit || c.calls != 2 {
		t.Errorf("live grading after a cancelled one: hit %v after %d gradings", hit, c.calls)
	}
}

// TestMemoNil: a nil memo grades every call and counts nothing.
func TestMemoNil(t *testing.T) {
	e := newEnv()
	c := newMemoCase(e.trust())
	c.memo = nil
	for i := 0; i < 2; i++ {
		if _, v, hit := c.grade(context.Background(), e.full(), "core.example"); hit || v == "" {
			t.Fatalf("nil memo call %d: value %q, hit %v", i, v, hit)
		}
	}
	if c.calls != 2 {
		t.Errorf("nil memo graded %d times, want 2", c.calls)
	}
	for name, n := range c.reg.Snapshot().Counters {
		if n != 0 {
			t.Errorf("nil memo counted %s = %d", name, n)
		}
	}
}

// TestMemoConcurrentOneKey: eight goroutines grading one key see identical
// values, and exactly one grading is stored. Run under -race.
func TestMemoConcurrentOneKey(t *testing.T) {
	e := newEnv()
	tr := e.trust()
	tr.Metrics = obs.NewRegistry()
	memo := NewMemo[[]bool]("core.vcache", tr)
	const n = 8
	reps := make([]compliance.Report, n)
	vals := make([][]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := tr.Grader()
			defer g.Close()
			reps[w], vals[w], _ = memo.Grade(context.Background(), e.full(), "core.example", func() (compliance.Report, []bool) {
				ok := make([]bool, len(Profiles))
				for i := range ok {
					ok[i] = g.Build(i, e.full(), "core.example").OK()
				}
				return g.Analyze(e.full(), "core.example"), ok
			})
		}(w)
	}
	wg.Wait()
	for w := 1; w < n; w++ {
		if !reflect.DeepEqual(reps[w], reps[0]) || !reflect.DeepEqual(vals[w], vals[0]) {
			t.Fatalf("goroutine %d graded differently: %v vs %v", w, vals[w], vals[0])
		}
	}
	cn := tr.Metrics.Snapshot().Counters
	if cn["core.vcache.inserts"] != 1 {
		t.Errorf("inserts = %d, want 1", cn["core.vcache.inserts"])
	}
	if got := cn["core.vcache.hits"] + cn["core.vcache.misses"]; got != n {
		t.Errorf("lookups = %d, want %d", got, n)
	}
}

// TestClassMatchesBuild: the verdict route, which reads each builder's
// scratch, gives the class of the Outcome Build copies out, for every
// profile, with and without hostname checks. The lists are a population
// sample, each also reversed below the leaf, cut to the leaf, and padded
// past GnuTLS's input limit, under the domain and under a wrong one; and
// the Table 2 capability scenarios in their own trust contexts. Class and
// Build alternate on the same Grader, so a Class that left scratch in a
// state the next build reads would show. Verdicts holds the same class for
// every client.
func TestClassMatchesBuild(t *testing.T) {
	type grading struct {
		trust  Trust
		list   []*certmodel.Certificate
		domain string
	}
	var cases []grading
	pop := population.Generate(population.Config{Size: 150, Seed: 29})
	popTrust := Trust{Roots: pop.Roots(), Vendors: pop.Vendors, Fetcher: pop.Repo, Now: pop.Cfg.Base}
	for _, d := range pop.Domains {
		list := d.List
		reversed := append([]*certmodel.Certificate{list[0]}, list[1:]...)
		slices.Reverse(reversed[1:])
		padded := append([]*certmodel.Certificate(nil), list...)
		for len(padded) <= 17 {
			padded = append(padded, list[len(list)-1])
		}
		for _, l := range [][]*certmodel.Certificate{list, reversed, list[:1], padded} {
			cases = append(cases, grading{popTrust, l, d.Name}, grading{popTrust, l, "wrong.invalid"})
		}
	}
	set, err := clients.NewScenarioSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*clients.Scenario{set.OrderReorganization, set.RedundancyElimination, set.AIACompletion,
		set.Validity, set.KID, set.KeyUsage, set.BasicConstraints, set.SelfSigned} {
		tr := Trust{Roots: sc.Roots, Fetcher: sc.Fetcher, Now: certgen.Reference}
		cases = append(cases, grading{tr, sc.List, sc.Domain}, grading{tr, sc.List, "wrong.invalid"})
	}

	classes := map[VerdictClass]int{}
	for _, hostname := range []bool{false, true} {
		graders := map[*rootstore.Store]*Grader{}
		for _, c := range cases {
			g := graders[c.trust.Roots]
			if g == nil {
				tr := c.trust
				tr.Hostname = hostname
				g = tr.Grader()
				graders[c.trust.Roots] = g
			}
			vec := g.Verdicts(c.list, c.domain)
			for i, p := range Profiles {
				want := Classify(g.Build(i, c.list, c.domain))
				if got := g.Class(i, c.list, c.domain); got != want {
					t.Fatalf("hostname=%v %s on %d-entry list for %s: Class %v, Classify(Build) %v",
						hostname, p.Name, len(c.list), c.domain, got, want)
				}
				if vec[i] != want {
					t.Fatalf("hostname=%v %s on %d-entry list for %s: Verdicts has %v, Classify(Build) %v",
						hostname, p.Name, len(c.list), c.domain, vec[i], want)
				}
				if again := Classify(g.Build(i, c.list, c.domain)); again != want {
					t.Fatalf("hostname=%v %s: Build after Class gives %v, before %v", hostname, p.Name, again, want)
				}
				classes[want]++
			}
		}
	}
	t.Logf("classes: %v", classes)
	for v := VerdictOK; v <= VerdictOtherFailure; v++ {
		if v == VerdictRevoked {
			continue // no trust here carries a revocation list
		}
		if classes[v] == 0 {
			t.Errorf("no grading was %v; classes seen: %v", v, classes)
		}
	}
}

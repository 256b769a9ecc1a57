package pathbuild

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/obs"
	"chainchaos/internal/revocation"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/validate"
)

// Sentinel errors for construction-phase failures. Validation-phase failures
// are reported through Outcome.Validation instead.
var (
	// ErrEmptyList: the server presented no certificates.
	ErrEmptyList = errors.New("pathbuild: empty certificate list")
	// ErrInputListTooLong: the presented list exceeds Policy.MaxInputList
	// (GnuTLS's behaviour, finding I-2).
	ErrInputListTooLong = errors.New("pathbuild: certificate list exceeds input limit")
	// ErrSelfSignedLeaf: the first certificate is self-signed and the
	// policy refuses to build from it.
	ErrSelfSignedLeaf = errors.New("pathbuild: self-signed leaf certificate rejected")
	// ErrPathTooLong: no candidate path fits within Policy.MaxPathLen.
	ErrPathTooLong = errors.New("pathbuild: constructed path exceeds length limit")
)

// Outcome reports one construction attempt.
type Outcome struct {
	// Path is the constructed certification path, leaf first, including
	// the trust anchor when one was found. On a construction dead end it
	// holds the longest partial path, so differential analysis can see how
	// far the client got.
	Path []*certmodel.Certificate

	// Validation is the path-validation result for Path. Zero when Err is
	// a construction-phase error.
	Validation validate.Result

	// Err is non-nil for construction-phase refusals (see the sentinel
	// errors above).
	Err error

	// CandidatesConsidered counts issuer candidates examined, the resource
	// metric behind the paper's duplicate/irrelevant-certificate cost
	// observations. It counts presented-list entries a sequential scanner
	// visits per step (all of them under Reorder, the forward tail
	// otherwise), so the metric is independent of how the lookup is
	// implemented internally.
	CandidatesConsidered int

	// PathsTried counts complete candidate paths validated (1 without
	// backtracking).
	PathsTried int

	// AIAFetches counts Authority Information Access retrievals.
	AIAFetches int
}

// OK reports whether construction succeeded and the path validates.
func (o Outcome) OK() bool { return o.Err == nil && o.Validation.OK }

// Builder constructs certification paths under a Policy.
//
// A Builder owns reusable construction scratch (candidate pool, pool index,
// search stacks, the findings buffers attempts validate into, the Outcome
// under construction). BuildScratch returns that Outcome in place and,
// on a reused Builder, allocates nothing unless a shortlist holds more
// than eight candidates; Build copies out its path and findings, and
// allocates only those besides. The differential harness keeps one
// Builder per (shard, profile) for exactly this reason. A Builder is
// therefore NOT safe for concurrent use —
// share certificates and (sealed) stores across goroutines, not Builders.
type Builder struct {
	Policy Policy
	// Roots is the builder's trust store.
	Roots *rootstore.Store
	// Fetcher resolves AIA URIs when the policy enables AIA.
	Fetcher aia.Fetcher
	// Cache is the intermediate cache consulted when the policy enables
	// UseCache: a fixed preload (Mozilla ships every CCADB-disclosed
	// intermediate) that builds read and never write, so no measurement
	// teaches the client what an earlier chain carried.
	Cache *rootstore.Store
	// Now is the validation time; zero disables validity checks.
	Now time.Time
	// Revocation, when non-nil, is consulted during validation — and, for
	// policies with PartialValidation, during candidate selection, the
	// MbedTLS behaviour noted in §3.2.
	Revocation *revocation.List
	// Trace, when non-nil, records every construction decision.
	Trace *Trace
	// Metrics, when non-nil, receives per-build counters (builds,
	// candidates considered, paths tried, AIA fetches, build failures) and
	// a constructed-chain-length histogram. Builds tally into plain
	// builder-local ints (the Builder is single-goroutine, like scratch)
	// and the batch is published every flushEvery builds and on
	// FlushMetrics — per-build atomics on registry-shared counters would
	// ping-pong cache lines across difftest workers.
	Metrics *obs.Registry

	metricsOnce sync.Once
	m           buildMetrics

	// scratch is the builder-owned search state, lazily created on the
	// first Build and reused (cleared, not reallocated) on every later one.
	scratch *searcher
}

// buildMetrics holds the builder's resolved handles plus the builder-local
// tallies batched between flushes; everything no-ops without a registry.
type buildMetrics struct {
	builds     *obs.Counter // pathbuild.builds
	ok         *obs.Counter // pathbuild.builds_ok
	candidates *obs.Counter // pathbuild.candidates: sequential-scan candidates considered
	pathsTried *obs.Counter // pathbuild.paths_tried
	aiaFetches *obs.Counter // pathbuild.aia_fetches
	chainLen   *obs.Tally   // pathbuild.chain_length: constructed path lengths

	nBuilds, nOK, nCandidates, nPathsTried, nAIAFetches int64
}

// flushEvery bounds how stale the published pathbuild counters can get:
// long-running builders publish at least every this many builds even if the
// owner never calls FlushMetrics.
const flushEvery = 64

func (b *Builder) metrics() *buildMetrics {
	b.metricsOnce.Do(func() {
		r := b.Metrics
		b.m = buildMetrics{
			builds:     r.Counter("pathbuild.builds"),
			ok:         r.Counter("pathbuild.builds_ok"),
			candidates: r.Counter("pathbuild.candidates"),
			pathsTried: r.Counter("pathbuild.paths_tried"),
			aiaFetches: r.Counter("pathbuild.aia_fetches"),
			chainLen:   r.Histogram("pathbuild.chain_length", obs.SizeBuckets).Tally(),
		}
	})
	return &b.m
}

// record tallies one finished Build locally, publishing every flushEvery-th
// batch.
func (m *buildMetrics) record(out *Outcome) {
	if m.builds == nil {
		return // unwired
	}
	m.nBuilds++
	if out.OK() {
		m.nOK++
	}
	m.nCandidates += int64(out.CandidatesConsidered)
	m.nPathsTried += int64(out.PathsTried)
	m.nAIAFetches += int64(out.AIAFetches)
	if len(out.Path) > 0 {
		m.chainLen.Observe(int64(len(out.Path)))
	}
	if m.nBuilds >= flushEvery {
		m.flush()
	}
}

// flush publishes the local batch into the shared counters and resets it.
func (m *buildMetrics) flush() {
	if m.builds == nil || m.nBuilds == 0 {
		return
	}
	m.builds.Add(m.nBuilds)
	m.ok.Add(m.nOK)
	m.candidates.Add(m.nCandidates)
	m.pathsTried.Add(m.nPathsTried)
	m.aiaFetches.Add(m.nAIAFetches)
	m.chainLen.Flush()
	m.nBuilds, m.nOK, m.nCandidates, m.nPathsTried, m.nAIAFetches = 0, 0, 0, 0, 0
}

// FlushMetrics publishes any batched tallies into the registry. Owners that
// wire Metrics should call it when a builder retires (end of a shard) so the
// final partial batch is not lost; harmless without a registry.
func (b *Builder) FlushMetrics() {
	b.metrics().flush()
}

const defaultMaxAttempts = 32

// scanMax is the longest presented list the searcher scans. Up to it, the
// pool, the path and each candidate shortlist are walked linearly, which
// beats building the pool index and the fingerprint sets for lists this
// short. Longer lists, such as a 1 MiB chainserved body of about 1,700
// certificates, are indexed, so a build stays linear in the list length.
const scanMax = 32

// searcher returns the builder's reusable search scratch.
func (b *Builder) searcher() *searcher {
	if b.scratch == nil {
		b.scratch = &searcher{builder: b}
	}
	return b.scratch
}

// Build constructs and validates a path for the presented list. domain, when
// non-empty, is checked against the leaf during validation. The Outcome is
// the caller's: its path, findings and error are copies no later build
// touches.
func (b *Builder) Build(list []*certmodel.Certificate, domain string) Outcome {
	out := *b.BuildScratch(list, domain)
	out.Path = append([]*certmodel.Certificate(nil), out.Path...)
	if len(out.Validation.Findings) > 0 {
		out.Validation.Findings = append([]validate.Finding(nil), out.Validation.Findings...)
	}
	if e, ok := out.Err.(*limitError); ok {
		own := *e
		out.Err = &own
	}
	return out
}

// BuildScratch is Build without the copy: the Outcome, its path, findings
// and error are the builder's scratch, valid only until the builder's next
// build. It records the same metrics as Build. Callers that read a verdict
// and keep nothing of the Outcome use it.
func (b *Builder) BuildScratch(list []*certmodel.Certificate, domain string) *Outcome {
	out := b.build(list, domain)
	b.metrics().record(out)
	return out
}

func (b *Builder) build(list []*certmodel.Certificate, domain string) *Outcome {
	s := b.searcher()
	s.out = Outcome{}
	switch {
	case len(list) == 0:
		s.out.Err = ErrEmptyList
	case b.Policy.MaxInputList > 0 && len(list) > b.Policy.MaxInputList:
		s.refuse(ErrInputListTooLong, len(list), b.Policy.MaxInputList)
	case list[0].SelfSigned() && !b.Policy.AllowSelfSignedLeaf:
		s.out.Err = ErrSelfSignedLeaf
	default:
		s.begin(list, domain)
		s.run(list[0])
	}
	return &s.out
}

// refuse reports a construction error that names a limit, rendered from
// the searcher's own limitError.
func (s *searcher) refuse(sentinel error, got, limit int) {
	s.limit = limitError{sentinel, got, limit}
	s.out.Err = &s.limit
}

// limitError is a construction error that names a limit. It renders the
// text fmt.Errorf("%w: …") rendered, on read, and unwraps to its sentinel.
type limitError struct {
	sentinel error
	got      int // the presented length; negative when only the limit is named
	limit    int
}

func (e *limitError) Error() string {
	if e.got < 0 {
		return e.sentinel.Error() + ": limit " + strconv.Itoa(e.limit)
	}
	return e.sentinel.Error() + ": " + strconv.Itoa(e.got) + " > " + strconv.Itoa(e.limit)
}

func (e *limitError) Unwrap() error { return e.sentinel }

// poolEntry is one usable certificate from the presented list.
type poolEntry struct {
	cert *certmodel.Certificate
	pos  int // position in the original list
}

// buildPool converts the list into the candidate pool, folding duplicates
// when the policy eliminates them. The leaf (position 0) stays in the pool:
// a duplicated leaf must still be skipped over, at scanning cost. The pool
// slice and the indexed mode's dedup set live in the searcher scratch and
// are reused across Build calls.
func (s *searcher) buildPool(list []*certmodel.Certificate) {
	pool := s.poolBuf[:0]
	switch {
	case !s.builder.Policy.EliminateDuplicates:
		for i, c := range list {
			pool = append(pool, poolEntry{c, i})
		}
	case s.indexed:
		if s.poolSeen == nil {
			s.poolSeen = make(map[certmodel.FP]bool, len(list))
		}
		clear(s.poolSeen)
		for i, c := range list {
			fp := c.Fingerprint()
			if s.poolSeen[fp] {
				continue
			}
			s.poolSeen[fp] = true
			pool = append(pool, poolEntry{c, i})
		}
	default:
		for i, c := range list {
			if !inPool(pool, c) {
				pool = append(pool, poolEntry{c, i})
			}
		}
	}
	s.poolBuf = pool
	s.pool = pool
}

// inPool reports whether the pool already holds a copy of c. A pointer
// match settles the common case, a list repeating one certificate; only
// then are fingerprints compared.
func inPool(pool []poolEntry, c *certmodel.Certificate) bool {
	for _, e := range pool {
		if e.cert == c {
			return true
		}
	}
	fp := c.Fingerprint()
	for _, e := range pool {
		if e.cert.Fingerprint() == fp {
			return true
		}
	}
	return false
}

// searcher runs the (possibly backtracking) DFS over issuer choices. One
// searcher is owned by its Builder and reused across Build calls: the pool,
// the pool index, the path stack, the used set and the per-depth candidate
// buffers are cleared — not reallocated — by begin.
type searcher struct {
	builder *Builder
	pool    []poolEntry
	domain  string
	maxTry  int
	// indexed is set for lists longer than scanMax: the pool is deduplicated
	// through poolSeen, candidates are found through the pool index, and
	// used tracks the path. Shorter lists scan the pool and the path instead.
	indexed bool

	// out is the Outcome under construction. BuildScratch returns it in
	// place; its Path and Findings are scratch buffers below, and a limit
	// error points at limit.
	out   Outcome
	limit limitError

	// Reusable scratch.

	// poolBuf backs pool; poolSeen dedups it when the policy eliminates
	// duplicates.
	poolBuf  []poolEntry
	poolSeen map[certmodel.FP]bool
	// bySubject/bySKID head per-key chains threaded through nextSubject/
	// nextSKID, indexing pool entries so candidate lookup touches only
	// entries that can match (see indexPool).
	bySubject   map[uint64]int32
	bySKID      map[certmodel.KeyIDPrefix]int32
	nextSubject []int32
	nextSKID    []int32
	// path is the DFS stack of the partial path; used marks the
	// fingerprints on it in indexed mode.
	path []*certmodel.Certificate
	used map[certmodel.FP]bool
	// candStack holds one reusable candidate buffer per search depth, so
	// backtracking frames never share (or reallocate) a shortlist.
	candStack [][]candidate
	// issuerBuf is the reusable buffer handed to rootstore.AppendIssuers.
	// Safe to share across the roots and cache lookups within one step:
	// each is fully consumed (copied into cands) before the other runs.
	issuerBuf []*certmodel.Certificate
	// findings is the buffer every attempt validates into.
	findings []validate.Finding
	// firstPath/firstFindings keep a backtracking build's first failed
	// attempt, reported when no attempt validates; firstPath is empty
	// until there is one.
	firstPath     []*certmodel.Certificate
	firstFindings []validate.Finding

	// done is set when the search stops.
	done bool
}

// begin resets the searcher for a new search: the candidate pool is
// rebuilt into the reusable buffers, and, for a list longer than scanMax,
// the pool index is rewired.
func (s *searcher) begin(list []*certmodel.Certificate, domain string) {
	s.domain = domain
	s.maxTry = s.builder.Policy.MaxAttempts
	if s.maxTry <= 0 {
		s.maxTry = defaultMaxAttempts
	}
	s.path = s.path[:0]
	s.firstPath = s.firstPath[:0]
	s.done = false
	s.indexed = len(list) > scanMax
	s.buildPool(list)
	if s.indexed {
		if s.used == nil {
			s.used = make(map[certmodel.FP]bool, 8)
		}
		clear(s.used)
		s.indexPool()
	}
}

// push appends c to the path.
func (s *searcher) push(c *certmodel.Certificate) {
	s.path = append(s.path, c)
	if s.indexed {
		s.used[c.Fingerprint()] = true
	}
}

// pop removes the path's last certificate.
func (s *searcher) pop() {
	if s.indexed {
		delete(s.used, s.path[len(s.path)-1].Fingerprint())
	}
	s.path = s.path[:len(s.path)-1]
}

// onPath reports whether a certificate with fingerprint fp is on the path.
func (s *searcher) onPath(c *certmodel.Certificate, fp certmodel.FP) bool {
	if s.indexed {
		return s.used[fp]
	}
	for _, p := range s.path {
		if p == c || p.Fingerprint() == fp {
			return true
		}
	}
	return false
}

func (s *searcher) run(leaf *certmodel.Certificate) {
	s.push(leaf)
	s.extend(0)
	if s.done {
		return
	}
	// Nothing validated. Report the first complete attempt, or a length
	// failure if even that was impossible.
	if len(s.firstPath) > 0 {
		s.report(s.firstPath, validate.Result{Findings: s.firstFindings})
		return
	}
	if s.builder.Policy.MaxPathLen > 0 {
		s.refuse(ErrPathTooLong, -1, s.builder.Policy.MaxPathLen)
	}
}

// finish validates a complete candidate path into scratch and records it.
// It returns true when the search should stop.
func (s *searcher) finish(path []*certmodel.Certificate) bool {
	s.out.PathsTried++
	res := validate.PathInto(s.findings, path, validate.Options{
		Roots:      s.builder.Roots,
		Now:        s.builder.Now,
		Domain:     s.domain,
		Revocation: s.builder.Revocation,
	})
	if res.OK && !s.effectiveLengthOK(path) {
		res = validate.Result{Findings: append(res.Findings, validate.ClientLimit(s.builder.Policy.MaxPathLen))}
	}
	s.findings = res.Findings
	s.recordAttempt(path, res)
	if res.OK || !s.builder.Policy.Backtrack || s.out.PathsTried >= s.maxTry {
		s.report(path, res)
		s.done = true
		return true
	}
	if len(s.firstPath) == 0 {
		s.firstPath = append(s.firstPath, path...)
		s.firstFindings = append(s.firstFindings[:0], res.Findings...)
	}
	return false
}

// report makes an attempt the Outcome's, in place: its path, and its
// findings when there are any, so a valid path keeps nil findings. The
// path is the search stack or firstPath, and no certificate is pushed
// after the search stops, so the path stays intact until the next build.
func (s *searcher) report(path []*certmodel.Certificate, res validate.Result) {
	s.out.Path = path
	s.out.Validation = validate.Result{OK: res.OK}
	if len(res.Findings) > 0 {
		s.out.Validation.Findings = res.Findings
	}
}

// withinLengthLimit reports whether a path of n certificates is acceptable.
func (s *searcher) withinLengthLimit(n int) bool {
	limit := s.builder.Policy.MaxPathLen
	return limit <= 0 || n <= limit
}

// effectiveLengthOK checks the client's path-length limit against the chain
// the client actually verifies: when the path's terminal certificate is not
// itself the anchor but is issued by a store root, that implicit anchor
// counts toward the length.
func (s *searcher) effectiveLengthOK(path []*certmodel.Certificate) bool {
	limit := s.builder.Policy.MaxPathLen
	if limit <= 0 {
		return true
	}
	effective := len(path)
	last := path[len(path)-1]
	if s.builder.Roots != nil && !s.builder.Roots.Contains(last) && s.builder.Roots.HasIssuer(last) {
		effective++
	}
	return effective <= limit
}

// extend grows s.path upward from its last certificate. lastPos is the
// list position of the most recently consumed in-list certificate, used by
// forward-only (non-reordering) policies. The path stack is pushed/popped in
// place. The reported attempt stays where it is, in s.path or firstPath:
// nothing is pushed once s.done is set, so it is intact until the next
// build, and only Build copies it out.
func (s *searcher) extend(lastPos int) {
	if s.done {
		return
	}
	current := s.path[len(s.path)-1]

	// A self-signed certificate terminates construction.
	if current.SelfSigned() {
		s.finish(s.path)
		return
	}

	cands := s.collectCandidates(current, lastPos, len(s.path))
	s.recordStep(current, len(s.path), cands)

	tried := false
	for i := range cands {
		cand := &cands[i]
		if s.done {
			return
		}
		if !s.withinLengthLimit(len(s.path) + 1) {
			// Every extension would blow the limit; terminate with the
			// partial path so validation reports the dangling end —
			// unless nothing has been tried, in which case fall through
			// to the dead-end handling below.
			break
		}
		tried = true
		s.push(cand.cert)
		if cand.terminal {
			finished := s.finish(s.path)
			s.pop()
			if !finished && s.builder.Policy.Backtrack {
				continue
			}
			return
		}
		s.extend(cand.nextLastPos(lastPos))
		s.pop()
		if s.done || !s.builder.Policy.Backtrack {
			return
		}
	}
	if tried {
		return
	}

	// Dead end: no candidate issuer anywhere. The client presents what it
	// has; validation will flag the untrusted terminus.
	s.finish(s.path)
}

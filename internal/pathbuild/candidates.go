package pathbuild

import (
	"bytes"
	"sort"

	"chainchaos/internal/certmodel"
)

// candSource identifies where a candidate issuer came from; lower values are
// preferred when the same certificate is reachable several ways.
type candSource uint8

const (
	sourceRoots candSource = iota
	sourceList
	sourceCache
	sourceAIA
)

// candidate is one potential issuer of the current certificate. It carries
// no priority key: most shortlists hold one candidate, and a key is
// computed only for a shortlist with rivals (see rankCandidates).
type candidate struct {
	cert   *certmodel.Certificate
	pos    int32 // original list position; -1 for out-of-list sources
	source candSource
	// terminal marks trust-store candidates: appending one completes the
	// path even if the certificate is not self-signed (cross-signed roots).
	terminal bool
}

// nextLastPos computes the forward-only cursor after consuming this
// candidate: in-list candidates advance it, out-of-list ones leave it.
func (c *candidate) nextLastPos(lastPos int) int {
	if c.source == sourceList && int(c.pos) > lastPos {
		return int(c.pos)
	}
	return lastPos
}

// rankKey is a candidate's composite priority key; smaller wins. The
// precedence — KID agreement, KeyUsage, Basic Constraints, trust anchor
// preference, validity, recency, validity span, presented position —
// follows the empirical ordering observed in Chromium (§3.2: KID match
// first, self-signed next, validity last), with each component collapsing
// to zero when the policy disables it. The five small components are
// packed into flags, most significant first, so one comparison orders
// them as comparing them one by one would.
type rankKey struct {
	flags    uint32 // kid<<4 | keyUsage<<3 | basic<<2 | trusted<<1 | invalid
	pos      int32
	recency  int64 // negated NotBefore in Unix seconds (VP2 only)
	duration int64 // negated validity span (VP2 only)
}

func (k *rankKey) less(o *rankKey) bool {
	if k.flags != o.flags {
		return k.flags < o.flags
	}
	if k.recency != o.recency {
		return k.recency < o.recency
	}
	if k.duration != o.duration {
		return k.duration < o.duration
	}
	return k.pos < o.pos
}

// kidStatus classifies the AKID/SKID agreement between child and candidate
// parent: 0 match, 1 absent (either side lacks the identifier), 2 mismatch.
func kidStatus(parent, child *certmodel.Certificate) int {
	if len(child.AuthorityKeyID) == 0 || len(parent.SubjectKeyID) == 0 {
		return 1
	}
	if bytes.Equal(parent.SubjectKeyID, child.AuthorityKeyID) {
		return 0
	}
	return 2
}

// indexPool (re)builds the pool index for a list longer than scanMax: a
// subject-DN chain and an SKID chain over the pool entries, so candidate
// lookup touches only the entries that can satisfy NameIndicatesIssuance
// for the path tip — O(matches) instead of O(pool) per step. Chain heads
// live in the reusable bySubject/bySKID maps; links are threaded through the
// nextSubject/nextSKID arrays. Entries are inserted in reverse pool order so
// every chain iterates in ascending pool position, the same visit order as a
// front-to-back sequential scan.
//
// The maps are keyed by fixed-size keys, the subject's cached name key and
// the SKID's first 8 bytes, so building the index hashes and copies no
// string. Entries that merely share a key lengthen a chain; every chain
// entry is re-checked with NameIndicatesIssuance, which compares the full
// names and identifiers, before use.
//
// Zero-subject entries never enter the subject chain (the DN criterion
// requires a non-empty issuer name), and SKID-less entries never enter the
// SKID chain, mirroring the guards inside NameIndicatesIssuance.
func (s *searcher) indexPool() {
	if s.bySubject == nil {
		s.bySubject = make(map[uint64]int32, len(s.pool))
		s.bySKID = make(map[certmodel.KeyIDPrefix]int32, len(s.pool))
	}
	clear(s.bySubject)
	clear(s.bySKID)
	n := len(s.pool)
	if cap(s.nextSubject) < n {
		s.nextSubject = make([]int32, n)
		s.nextSKID = make([]int32, n)
	}
	s.nextSubject = s.nextSubject[:n]
	s.nextSKID = s.nextSKID[:n]
	for i := n - 1; i >= 0; i-- {
		c := s.pool[i].cert
		s.nextSubject[i] = -1
		s.nextSKID[i] = -1
		if !c.Subject.IsZero() {
			k := c.SubjectKey()
			if head, ok := s.bySubject[k]; ok {
				s.nextSubject[i] = head
			}
			s.bySubject[k] = int32(i)
		}
		if len(c.SubjectKeyID) > 0 {
			k := certmodel.KeyIDPrefixOf(c.SubjectKeyID)
			if head, ok := s.bySKID[k]; ok {
				s.nextSKID[i] = head
			}
			s.bySKID[k] = int32(i)
		}
	}
}

// addCandidate appends cert to cands unless it is already on the path,
// already shortlisted, identical to the current tip, or (under partial
// validation) cryptographically unusable. The shortlist is small, so the
// dedup is a linear scan over the cached binary fingerprints rather than a
// per-step map.
func (s *searcher) addCandidate(cands []candidate, current, cert *certmodel.Certificate, pos int, source candSource, terminal bool) []candidate {
	fp := cert.Fingerprint()
	if s.onPath(cert, fp) {
		return cands
	}
	for i := range cands {
		if cands[i].cert.Fingerprint() == fp {
			return cands
		}
	}
	if cert.Equal(current) {
		return cands
	}
	b := s.builder
	if b.Policy.PartialValidation {
		// MbedTLS-style interleaving: check the signature (and validity,
		// when a clock is set) before accepting the candidate at all.
		if !current.SignatureVerifiedBy(cert) {
			return cands
		}
		if !b.Now.IsZero() && !cert.ValidAt(b.Now) {
			return cands
		}
		if b.Revocation.IsRevoked(cert) {
			return cands
		}
	}
	return append(cands, candidate{cert: cert, pos: int32(pos), source: source, terminal: terminal})
}

// candBuf returns the reusable candidate buffer for a search depth, length
// zero. One buffer per depth, because a frame iterates its shortlist while
// deeper frames collect theirs.
func (s *searcher) candBuf(depth int) []candidate {
	for len(s.candStack) <= depth {
		s.candStack = append(s.candStack, nil)
	}
	return s.candStack[depth][:0]
}

// collectCandidates gathers, filters, deduplicates and ranks the issuer
// candidates for current. depth is the length of the path built so far
// (candidate would become element depth); lastPos is the forward-only cursor
// for non-reordering policies. The returned slice is searcher-owned scratch,
// valid until the next collection at the same depth.
func (s *searcher) collectCandidates(current *certmodel.Certificate, lastPos, depth int) []candidate {
	b := s.builder
	cands := s.candBuf(depth)

	// Trust store first so that a root reachable both ways is flagged
	// terminal.
	if b.Roots != nil {
		s.issuerBuf = b.Roots.AppendIssuers(s.issuerBuf[:0], current)
		for _, root := range s.issuerBuf {
			cands = s.addCandidate(cands, current, root, -1, sourceRoots, true)
		}
	}

	// Presented list: scanned in pool order, or looked up in the pool index.
	if s.indexed {
		cands = s.indexedListCandidates(cands, current, lastPos)
	} else {
		for _, entry := range s.pool {
			if !b.Policy.Reorder && entry.pos <= lastPos {
				continue
			}
			s.out.CandidatesConsidered++
			if certmodel.NameIndicatesIssuance(entry.cert, current) {
				cands = s.addCandidate(cands, current, entry.cert, entry.pos, sourceList, false)
			}
		}
	}

	// Intermediate cache (Firefox).
	if b.Policy.UseCache && b.Cache != nil {
		s.issuerBuf = b.Cache.AppendIssuers(s.issuerBuf[:0], current)
		for _, cached := range s.issuerBuf {
			cands = s.addCandidate(cands, current, cached, -1, sourceCache, false)
		}
	}

	// AIA fetching, only when nothing local turned up — the behaviour of
	// AIA-capable clients, which treat fetching as the fallback.
	if len(cands) == 0 && b.Policy.AIA && b.Fetcher != nil {
		for _, uri := range current.AIAIssuerURLs {
			s.out.AIAFetches++
			fetched, err := b.Fetcher.Fetch(uri)
			if err != nil {
				continue
			}
			if certmodel.Issued(fetched, current) {
				cands = s.addCandidate(cands, current, fetched, -1, sourceAIA, false)
				break
			}
		}
	}

	s.rankCandidates(current, cands, depth)
	s.candStack[depth] = cands
	return cands
}

// indexedListCandidates appends the pool entries the index links to
// current. The subject chain is visited before the SKID chain, so the
// shortlist is not in pool order until it is ranked: the position, the
// ranking's last key, orders it as a scan would. (A lone candidate needs
// no order.) CandidatesConsidered keeps
// the sequential-scan semantics —
// every pool entry a front-to-back scanner would visit counts, whether or
// not the index touches it: reordering policies scan the whole pool,
// forward-only ones the tail past lastPos (pool positions are strictly
// increasing).
func (s *searcher) indexedListCandidates(cands []candidate, current *certmodel.Certificate, lastPos int) []candidate {
	reorder := s.builder.Policy.Reorder
	if reorder {
		s.out.CandidatesConsidered += len(s.pool)
	} else {
		first := sort.Search(len(s.pool), func(i int) bool { return s.pool[i].pos > lastPos })
		s.out.CandidatesConsidered += len(s.pool) - first
	}
	if !current.Issuer.IsZero() {
		if head, ok := s.bySubject[current.IssuerKey()]; ok {
			for i := head; i >= 0; i = s.nextSubject[i] {
				entry := s.pool[i]
				if !reorder && entry.pos <= lastPos {
					continue
				}
				if certmodel.NameIndicatesIssuance(entry.cert, current) {
					cands = s.addCandidate(cands, current, entry.cert, entry.pos, sourceList, false)
				}
			}
		}
	}
	if len(current.AuthorityKeyID) > 0 {
		if head, ok := s.bySKID[certmodel.KeyIDPrefixOf(current.AuthorityKeyID)]; ok {
			for i := head; i >= 0; i = s.nextSKID[i] {
				entry := s.pool[i]
				if !reorder && entry.pos <= lastPos {
					continue
				}
				if certmodel.NameIndicatesIssuance(entry.cert, current) {
					cands = s.addCandidate(cands, current, entry.cert, entry.pos, sourceList, false)
				}
			}
		}
	}
	return cands
}

// rankCandidates orders a shortlist of two or more candidates by rankKey,
// keeping equal keys in collection order; a shorter one is left as it is.
// A shortlist holds a handful of issuers, so the keys go in a stack buffer
// (append moves them to the heap only past eight) and an insertion sort
// orders keys and candidates in tandem, where sort.SliceStable would
// allocate on every call.
func (s *searcher) rankCandidates(current *certmodel.Certificate, cands []candidate, depth int) {
	if len(cands) < 2 {
		return
	}
	var local [8]rankKey
	keys := local[:0]
	for i := range cands {
		keys = append(keys, s.priority(current, &cands[i], depth))
	}
	for i := 1; i < len(cands); i++ {
		c, k := cands[i], keys[i]
		j := i
		for ; j > 0 && k.less(&keys[j-1]); j-- {
			cands[j], keys[j] = cands[j-1], keys[j-1]
		}
		cands[j], keys[j] = c, k
	}
}

// priority computes the policy-dependent rankKey of cand, which would sit
// at path index depth.
func (s *searcher) priority(current *certmodel.Certificate, cand *candidate, depth int) rankKey {
	b := s.builder
	var kid, keyUsage, basic, trusted, invalid uint32

	switch b.Policy.KIDPref {
	case KIDMatchFirst:
		kid = uint32(kidStatus(cand.cert, current))
	case KIDMatchOrAbsentFirst:
		if kidStatus(cand.cert, current) == 2 {
			kid = 1
		}
	}

	if b.Policy.KeyUsagePref && !cand.cert.CanSignCertificates() {
		keyUsage = 1
	}

	if b.Policy.BasicConstraintsPref {
		ok := cand.cert.IsCA && cand.cert.BasicConstraintsValid
		if ok && cand.cert.MaxPathLen != certmodel.MaxPathLenUnset {
			// The candidate would sit at path index depth, with depth-1
			// intermediates below it.
			ok = cand.cert.MaxPathLen >= depth-1
		}
		if !ok {
			basic = 1
		}
	}

	if b.Policy.PreferTrustedRoot && !cand.terminal && !cand.cert.SelfSigned() {
		trusted = 1
	}

	var k rankKey
	switch b.Policy.ValidityPref {
	case ValidityFirstValid:
		if !b.Now.IsZero() && !cand.cert.ValidAt(b.Now) {
			invalid = 1
		}
	case ValidityMostRecent:
		if !b.Now.IsZero() && !cand.cert.ValidAt(b.Now) {
			invalid = 1
		}
		k.recency = -cand.cert.NotBefore.Unix()
		k.duration = -int64(cand.cert.NotAfter.Sub(cand.cert.NotBefore))
	}
	k.flags = kid<<4 | keyUsage<<3 | basic<<2 | trusted<<1 | invalid

	k.pos = cand.pos
	if cand.pos < 0 {
		// Out-of-list sources sort after in-list candidates of equal
		// priority, in source order.
		k.pos = int32(len(s.pool)) + int32(cand.source)
	}
	return k
}

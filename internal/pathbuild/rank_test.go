package pathbuild

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

// rank is the reference priority key: one field per component, compared in
// order; smaller wins. rankKey packs the same components, and
// rankCandidates orders a shortlist as sorting it stably by rank does.
type rank struct {
	kid      int
	keyUsage int
	basic    int
	trusted  int
	validity validityKey
	pos      int
}

type validityKey struct {
	invalid  int   // 0 = valid at build time
	recency  int64 // negated NotBefore (VP2 only)
	duration int64 // negated validity span (VP2 only)
}

func (r rank) less(o rank) bool {
	if r.kid != o.kid {
		return r.kid < o.kid
	}
	if r.keyUsage != o.keyUsage {
		return r.keyUsage < o.keyUsage
	}
	if r.basic != o.basic {
		return r.basic < o.basic
	}
	if r.trusted != o.trusted {
		return r.trusted < o.trusted
	}
	if r.validity.invalid != o.validity.invalid {
		return r.validity.invalid < o.validity.invalid
	}
	if r.validity.recency != o.validity.recency {
		return r.validity.recency < o.validity.recency
	}
	if r.validity.duration != o.validity.duration {
		return r.validity.duration < o.validity.duration
	}
	return r.pos < o.pos
}

// rankCandidate computes the reference key of cand.
func (s *searcher) rankCandidate(current *certmodel.Certificate, cand candidate, depth int) rank {
	b := s.builder
	var r rank

	switch b.Policy.KIDPref {
	case KIDMatchFirst:
		r.kid = kidStatus(cand.cert, current)
	case KIDMatchOrAbsentFirst:
		if kidStatus(cand.cert, current) == 2 {
			r.kid = 1
		}
	}

	if b.Policy.KeyUsagePref && !cand.cert.CanSignCertificates() {
		r.keyUsage = 1
	}

	if b.Policy.BasicConstraintsPref {
		ok := cand.cert.IsCA && cand.cert.BasicConstraintsValid
		if ok && cand.cert.MaxPathLen != certmodel.MaxPathLenUnset {
			ok = cand.cert.MaxPathLen >= depth-1
		}
		if !ok {
			r.basic = 1
		}
	}

	if b.Policy.PreferTrustedRoot {
		trusted := cand.terminal || cand.cert.SelfSigned()
		if !trusted {
			r.trusted = 1
		}
	}

	switch b.Policy.ValidityPref {
	case ValidityFirstValid:
		if !b.Now.IsZero() && !cand.cert.ValidAt(b.Now) {
			r.validity.invalid = 1
		}
	case ValidityMostRecent:
		if !b.Now.IsZero() && !cand.cert.ValidAt(b.Now) {
			r.validity.invalid = 1
		}
		r.validity.recency = -cand.cert.NotBefore.Unix()
		r.validity.duration = -int64(cand.cert.NotAfter.Sub(cand.cert.NotBefore))
	}

	if cand.pos >= 0 {
		r.pos = int(cand.pos)
	} else {
		r.pos = len(s.pool) + int(cand.source)
	}
	return r
}

// referenceOrder returns cands sorted stably by the reference rank.
func referenceOrder(s *searcher, current *certmodel.Certificate, cands []candidate, depth int) []candidate {
	out := append([]candidate(nil), cands...)
	ranks := make([]rank, len(out))
	for i := range out {
		ranks[i] = s.rankCandidate(current, out[i], depth)
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ranks[idx[a]].less(ranks[idx[b]]) })
	sorted := make([]candidate, len(out))
	for i, j := range idx {
		sorted[i] = out[j]
	}
	return sorted
}

// rankingCertificates returns the tip a shortlist is collected for and a
// set of would-be issuers that differ from each other in every key
// component: AKID agreement (match, mismatch, absent), KeyUsage, Basic
// Constraints and path length, self-signature, validity at base+1 month,
// NotBefore (some less than a second apart, which the key compares in
// whole seconds), and validity span. Two issuers share every key
// component, so a shortlist can hold rivals with equal keys.
func rankingCertificates() (*certmodel.Certificate, []*certmodel.Certificate) {
	issuerKey := certmodel.NewSyntheticKey("rank issuer")
	issuerName := certmodel.Name{CommonName: "Rank CA"}
	current := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "rank.example"}, Issuer: issuerName, Serial: "tip",
		NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("rank tip"), SignedBy: issuerKey,
	})
	type variant struct {
		key                certmodel.SyntheticKey
		omitSKID, selfSign bool
		ca, pathLen        bool
		maxPathLen         int
		keyUsage           certmodel.KeyUsage
		notBefore          time.Time
		notAfter           time.Time
	}
	sub := 400 * time.Millisecond
	variants := []variant{
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base.Add(sub), notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base.Add(2 * sub), notAfter: base.AddDate(2, 0, 0)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base.Add(3 * sub), notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base.AddDate(0, 0, -1), notAfter: base.AddDate(4, 0, 0)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base.AddDate(-3, 0, 0), notAfter: base.AddDate(0, 0, 10)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base.AddDate(0, 2, 0), notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, ca: true, keyUsage: certmodel.KeyUsageDigitalSignature, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, ca: true, pathLen: true, maxPathLen: 0, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, ca: true, pathLen: true, maxPathLen: 2, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, omitSKID: true, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: certmodel.NewSyntheticKey("rank other"), ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
		{key: issuerKey, selfSign: true, ca: true, keyUsage: certmodel.KeyUsageCertSign, notBefore: base, notAfter: base.AddDate(3, 0, 0)},
	}
	var issuers []*certmodel.Certificate
	for i, v := range variants {
		signer, issuer := certmodel.NewSyntheticKey("rank parent"), certmodel.Name{CommonName: "Rank Parent"}
		if v.selfSign {
			signer, issuer = v.key, issuerName
		}
		issuers = append(issuers, certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: issuerName, Issuer: issuer, Serial: fmt.Sprintf("v%d", i),
			NotBefore: v.notBefore, NotAfter: v.notAfter,
			Key: v.key, SignedBy: signer, OmitSKID: v.omitSKID,
			IsCA: v.ca, BasicConstraintsValid: v.ca, HasPathLen: v.pathLen, MaxPathLen: v.maxPathLen,
			KeyUsage: v.keyUsage, HasKeyUsage: true,
		}))
	}
	// A twin of the first variant under another serial: every key
	// component equal.
	twin := certmodel.SyntheticConfigOf(issuers[0])
	twin.Serial = "twin"
	issuers = append(issuers, certmodel.NewSynthetic(twin))
	return current, issuers
}

// TestRankMatchesReference: over random shortlists of 2–6 candidates,
// every oraclePolicies policy and depths 1–3, rankCandidates orders the
// shortlist exactly as a stable sort by the reference rank does. The
// shortlists draw from issuers that differ in every key component, and
// hold rivals with equal keys (a twin certificate, or the same
// out-of-list source twice), which must keep collection order, and
// NotBefore values less than a second apart, which the key compares in
// whole seconds. A shortlist of one is left as it is, and one of 9–12
// outgrows rankCandidates' stack buffer.
func TestRankMatchesReference(t *testing.T) {
	current, issuers := rankingCertificates()
	r := rand.New(rand.NewSource(29))
	ties := 0
	for _, pol := range oraclePolicies() {
		b := &Builder{Policy: pol, Now: base.AddDate(0, 1, 0)}
		s := b.searcher()
		for trial := 0; trial < 3000; trial++ {
			s.pool = make([]poolEntry, 1+r.Intn(8))
			n := 2 + r.Intn(5)
			switch trial % 10 {
			case 0:
				n = 1
			case 5:
				n = 9 + r.Intn(4) // past the stack buffer
			}
			cands := make([]candidate, n)
			for i := range cands {
				c := candidate{cert: issuers[r.Intn(len(issuers))], pos: -1, source: candSource(r.Intn(4))}
				if c.source == sourceList {
					c.pos = int32(r.Intn(8))
				}
				c.terminal = c.source == sourceRoots && r.Intn(2) == 0
				cands[i] = c
			}
			depth := 1 + r.Intn(3)
			want := referenceOrder(s, current, cands, depth)
			for i := 1; i < n; i++ {
				a, b := s.rankCandidate(current, want[i-1], depth), s.rankCandidate(current, want[i], depth)
				if !a.less(b) && !b.less(a) && want[i-1] != want[i] {
					ties++
				}
			}
			got := append([]candidate(nil), cands...)
			s.rankCandidates(current, got, depth)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d (depth %d): position %d holds %s pos=%d src=%d term=%v, reference %s pos=%d src=%d term=%v",
						pol.Name, trial, depth, i,
						got[i].cert.SerialNumber, got[i].pos, got[i].source, got[i].terminal,
						want[i].cert.SerialNumber, want[i].pos, want[i].source, want[i].terminal)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no shortlist held distinct rivals with equal keys")
	}
}

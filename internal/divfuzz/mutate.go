// Mutation application: a genome materializes into a certificate list by
// copying its base and applying each mutation in order. Certificate-field
// operators rebuild through certmodel.SyntheticConfigOf — which round-trips
// bit-identically — so a mutant differs from its base in exactly the fields
// the operator touched.
package divfuzz

import (
	"chainchaos/internal/ca"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/population"
)

// Apply materializes g over base: the base list is copied, then each
// mutation is applied in order. The population supplies cross-signing
// material (other hierarchies' certificates). Apply never mutates base or
// the population and is a pure function of its arguments.
func Apply(pop *population.Population, base []*certmodel.Certificate, g Genome) []*certmodel.Certificate {
	return apply(pop, base, g, nil)
}

// apply is Apply with its rebuilds taken from memo.
func apply(pop *population.Population, base []*certmodel.Certificate, g Genome, memo *rebuildMemo) []*certmodel.Certificate {
	list := append([]*certmodel.Certificate(nil), base...)
	for _, m := range g.Muts {
		list = applyOne(pop, list, m, memo)
	}
	return list
}

// applyNext materializes the child that appends m to a parent's genome,
// given the parent's list. Apply is a left fold over the mutations, so
// applying m to a copy of the parent's list equals replaying the whole
// child genome from its base. The parent's list is not modified, so
// children of one parent may be built concurrently. The copy has room for
// the two certificates OpCrossRoot appends, the most any operator but
// OpBloat adds.
func applyNext(pop *population.Population, parent []*certmodel.Certificate, m Mut, memo *rebuildMemo) []*certmodel.Certificate {
	list := make([]*certmodel.Certificate, len(parent), len(parent)+2)
	copy(list, parent)
	return applyOne(pop, list, m, memo)
}

// maxBloat caps list growth so bloat chains stay bounded while still
// exceeding every profile's input limit.
const maxBloat = 40

func applyOne(pop *population.Population, list []*certmodel.Certificate, m Mut, memo *rebuildMemo) []*certmodel.Certificate {
	n := len(list)
	if n == 0 {
		return list
	}
	switch m.Op {
	case OpSwap:
		i, j := m.A%n, int(m.Salt%uint64(n))
		list[i], list[j] = list[j], list[i]
	case OpDup:
		i := m.A % n
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i+1] = list[i]
	case OpDrop:
		if n > 1 {
			i := m.A % n
			list = append(list[:i], list[i+1:]...)
		}
	case OpReverse:
		for i, j := 1, n-1; i < j; i, j = i+1, j-1 {
			list[i], list[j] = list[j], list[i]
		}
	case OpBloat:
		orig := append([]*certmodel.Certificate(nil), list...)
		for len(list) <= ppMaxInputList && len(list) < maxBloat {
			list = append(list, orig...)
		}
	case OpTruncate:
		list = list[:1]
	case OpCrossInsert:
		iss := pickIssuer(pop, m.Salt)
		i := m.A % (n + 1)
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = iss.CrossSigned
	case OpCrossRoot:
		iss := pickIssuer(pop, m.Salt)
		list = append(list, iss.Root, iss.RootCrossSigned)
	case OpStripSKID:
		i := m.A % n
		list[i] = memo.rebuild(list[i], m.Op, 0, func(cfg *certmodel.SyntheticConfig) {
			cfg.OmitSKID = true
		})
	case OpPerturbAKID:
		i := m.A % n
		list[i] = memo.rebuild(list[i], m.Op, m.Salt, func(cfg *certmodel.SyntheticConfig) {
			cfg.OmitAKID = false
			cfg.AKIDOverride = saltBytes(m.Salt)
		})
	case OpShiftValidity:
		i := m.A % n
		years := -3
		if m.Salt&1 == 1 {
			years = 2
		}
		list[i] = memo.rebuild(list[i], m.Op, m.Salt&1, func(cfg *certmodel.SyntheticConfig) {
			cfg.NotBefore = cfg.NotBefore.AddDate(years, 0, 0)
			cfg.NotAfter = cfg.NotAfter.AddDate(years, 0, 0)
		})
	case OpPerturbEKU:
		i := m.A % n
		list[i] = memo.rebuild(list[i], m.Op, 0, func(cfg *certmodel.SyntheticConfig) {
			cfg.ExtKeyUsages = []certmodel.ExtKeyUsage{certmodel.EKUCodeSigning}
		})
	case OpToggleBC:
		i := m.A % n
		list[i] = memo.rebuild(list[i], m.Op, 0, func(cfg *certmodel.SyntheticConfig) {
			cfg.IsCA = !cfg.IsCA
			cfg.BasicConstraintsValid = true
		})
	case OpNameConstrain:
		i := m.A % n
		list[i] = memo.rebuild(list[i], m.Op, 0, func(cfg *certmodel.SyntheticConfig) {
			cfg.PermittedDNSDomains = []string{"constrained.invalid"}
		})
	case OpSelfSignLeaf:
		list[0] = memo.rebuild(list[0], m.Op, 0, func(cfg *certmodel.SyntheticConfig) {
			cfg.Issuer = cfg.Subject
			cfg.SignedBy = cfg.Key
		})
	}
	return list
}

// ppMaxInputList is GnuTLS's input-list limit, the boundary OpBloat crosses.
const ppMaxInputList = 16

// rebuild reconstructs a synthetic certificate with the given config tweak,
// relying on the SyntheticConfigOf round-trip for all untouched fields.
func rebuild(c *certmodel.Certificate, tweak func(*certmodel.SyntheticConfig)) *certmodel.Certificate {
	cfg := certmodel.SyntheticConfigOf(c)
	tweak(&cfg)
	return certmodel.NewSynthetic(cfg)
}

// rebuildKey names one rebuilt certificate: the certificate it was made
// from, the operator, and the one mutation parameter the operator's tweak
// reads (Salt&1 for OpShiftValidity, the whole Salt for OpPerturbAKID,
// nothing for the others).
type rebuildKey struct {
	src   *certmodel.Certificate
	op    Op
	param uint64
}

// rebuildMemo holds the certificates one oracle has rebuilt, so a repeated
// mutation returns the certificate made the first time, its fingerprint
// already cached, instead of encoding and hashing an identical one. A
// rebuild is a pure function of its source's fields and the key's
// parameter, and nothing changes a certificate once it is built, so lists
// sharing the pointer compare exactly as lists holding equal copies.
// OpPerturbAKID is not stored: every mutation draws a fresh 64-bit AKID, so
// its keys almost never repeat. The memo is single-goroutine state, and a
// nil *rebuildMemo rebuilds every time and counts nothing.
type rebuildMemo struct {
	certs map[rebuildKey]*certmodel.Certificate
	// rebuilds counts certificates actually rebuilt, hits the rebuilds a
	// stored certificate answered; the oracle publishes both.
	rebuilds, hits int64
}

// rebuild returns tweak applied to c, from the memo when the key
// (c, op, param) was rebuilt before.
func (mm *rebuildMemo) rebuild(c *certmodel.Certificate, op Op, param uint64, tweak func(*certmodel.SyntheticConfig)) *certmodel.Certificate {
	if mm == nil {
		return rebuild(c, tweak)
	}
	if op == OpPerturbAKID {
		mm.rebuilds++
		return rebuild(c, tweak)
	}
	k := rebuildKey{src: c, op: op, param: param}
	if r, ok := mm.certs[k]; ok {
		mm.hits++
		return r
	}
	if mm.certs == nil {
		mm.certs = make(map[rebuildKey]*certmodel.Certificate)
	}
	r := rebuild(c, tweak)
	mm.rebuilds++
	mm.certs[k] = r
	return r
}

// pickIssuer selects a hierarchy by salt; the population always has at least
// one.
func pickIssuer(pop *population.Population, salt uint64) *ca.Issuer {
	return pop.Issuers[int(salt%uint64(len(pop.Issuers)))]
}

// saltBytes derives a fixed-width key identifier from a salt — deliberately
// matching no real key.
func saltBytes(salt uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(salt >> (8 * i))
	}
	return b
}

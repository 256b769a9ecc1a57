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
	list := append([]*certmodel.Certificate(nil), base...)
	for _, m := range g.Muts {
		list = applyOne(pop, list, m)
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
func applyNext(pop *population.Population, parent []*certmodel.Certificate, m Mut) []*certmodel.Certificate {
	list := make([]*certmodel.Certificate, len(parent), len(parent)+2)
	copy(list, parent)
	return applyOne(pop, list, m)
}

// maxBloat caps list growth so bloat chains stay bounded while still
// exceeding every profile's input limit.
const maxBloat = 40

func applyOne(pop *population.Population, list []*certmodel.Certificate, m Mut) []*certmodel.Certificate {
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
		list[i] = rebuild(list[i], func(cfg *certmodel.SyntheticConfig) {
			cfg.OmitSKID = true
		})
	case OpPerturbAKID:
		i := m.A % n
		list[i] = rebuild(list[i], func(cfg *certmodel.SyntheticConfig) {
			cfg.OmitAKID = false
			cfg.AKIDOverride = saltBytes(m.Salt)
		})
	case OpShiftValidity:
		i := m.A % n
		years := -3
		if m.Salt&1 == 1 {
			years = 2
		}
		list[i] = rebuild(list[i], func(cfg *certmodel.SyntheticConfig) {
			cfg.NotBefore = cfg.NotBefore.AddDate(years, 0, 0)
			cfg.NotAfter = cfg.NotAfter.AddDate(years, 0, 0)
		})
	case OpPerturbEKU:
		i := m.A % n
		list[i] = rebuild(list[i], func(cfg *certmodel.SyntheticConfig) {
			cfg.ExtKeyUsages = []certmodel.ExtKeyUsage{certmodel.EKUCodeSigning}
		})
	case OpToggleBC:
		i := m.A % n
		list[i] = rebuild(list[i], func(cfg *certmodel.SyntheticConfig) {
			cfg.IsCA = !cfg.IsCA
			cfg.BasicConstraintsValid = true
		})
	case OpNameConstrain:
		i := m.A % n
		list[i] = rebuild(list[i], func(cfg *certmodel.SyntheticConfig) {
			cfg.PermittedDNSDomains = []string{"constrained.invalid"}
		})
	case OpSelfSignLeaf:
		list[0] = rebuild(list[0], func(cfg *certmodel.SyntheticConfig) {
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

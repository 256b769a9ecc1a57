// Injectable scenarios: fuzzer-discovered chain topologies replayed through
// the population generator. The divergence fuzzer (internal/divfuzz) bins
// divergent inputs against the known I-1…I-4 classes; topologies outside
// them are emitted as Scenario values — a self-contained serialization of
// the deployed list, the trust anchors it may chain to, and the AIA
// repository entries it relies on — which `-scenario-file` on cmd/genpop and
// cmd/study feeds back into population generation and the physical study.
//
// Determinism contract (the PR 1 rule): the scenario coin and the scenario
// pick are salted splitmix64 draws keyed by (Config.Seed, rank), so injection
// is worker-invariant, and a run with no scenarios loaded is byte-identical
// to one generated before this file existed.
package population

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"chainchaos/internal/certmodel"
)

// Scenario stream salts (see reuse.go for the stream discipline).
const (
	scenarioCoinSalt = 0xFACADE0FF1CEB00C
	scenarioPickSalt = 0xB16B00B5CAB005E5
)

// CertSpec is the wire form of one synthetic certificate: every
// certmodel.SyntheticConfig field, with key identifiers and the AKID override
// hex-encoded and times as Unix seconds. A spec materializes bit-identically
// — NewSynthetic over the decoded config reproduces the original Raw bytes,
// so list digests (and therefore verdict-cache keys) survive the round trip.
type CertSpec struct {
	Subject   certmodel.Name `json:"subject"`
	Issuer    certmodel.Name `json:"issuer"`
	Serial    string         `json:"serial"`
	NotBefore int64          `json:"not_before"`
	NotAfter  int64          `json:"not_after"`

	KeyID    string `json:"key_id,omitempty"`
	SignedBy string `json:"signed_by,omitempty"`

	OmitSKID     bool   `json:"omit_skid,omitempty"`
	OmitAKID     bool   `json:"omit_akid,omitempty"`
	AKIDOverride string `json:"akid_override,omitempty"`

	KeyUsage    int  `json:"key_usage,omitempty"`
	HasKeyUsage bool `json:"has_key_usage,omitempty"`

	IsCA                  bool `json:"is_ca,omitempty"`
	BasicConstraintsValid bool `json:"basic_constraints,omitempty"`
	MaxPathLen            int  `json:"max_path_len,omitempty"`
	HasPathLen            bool `json:"has_path_len,omitempty"`

	DNSNames    []string `json:"dns_names,omitempty"`
	IPAddresses []string `json:"ip_addresses,omitempty"`

	AIAIssuerURLs []string `json:"aia_issuer_urls,omitempty"`

	ExtKeyUsages []int `json:"ext_key_usages,omitempty"`

	PermittedDNSDomains []string `json:"nc_permitted,omitempty"`
	ExcludedDNSDomains  []string `json:"nc_excluded,omitempty"`

	WeakSignature bool `json:"weak_signature,omitempty"`
}

// CertSpecOf serializes a synthetic certificate.
func CertSpecOf(c *certmodel.Certificate) CertSpec {
	cfg := certmodel.SyntheticConfigOf(c)
	spec := CertSpec{
		Subject:               cfg.Subject,
		Issuer:                cfg.Issuer,
		Serial:                cfg.Serial,
		NotBefore:             cfg.NotBefore.Unix(),
		NotAfter:              cfg.NotAfter.Unix(),
		KeyID:                 hex.EncodeToString(cfg.Key.ID()),
		SignedBy:              hex.EncodeToString(cfg.SignedBy.ID()),
		OmitSKID:              cfg.OmitSKID,
		OmitAKID:              cfg.OmitAKID,
		AKIDOverride:          hex.EncodeToString(cfg.AKIDOverride),
		KeyUsage:              int(cfg.KeyUsage),
		HasKeyUsage:           cfg.HasKeyUsage,
		IsCA:                  cfg.IsCA,
		BasicConstraintsValid: cfg.BasicConstraintsValid,
		MaxPathLen:            cfg.MaxPathLen,
		HasPathLen:            cfg.HasPathLen,
		DNSNames:              cfg.DNSNames,
		IPAddresses:           cfg.IPAddresses,
		AIAIssuerURLs:         cfg.AIAIssuerURLs,
		PermittedDNSDomains:   cfg.PermittedDNSDomains,
		ExcludedDNSDomains:    cfg.ExcludedDNSDomains,
		WeakSignature:         cfg.WeakSignature,
	}
	for _, e := range cfg.ExtKeyUsages {
		spec.ExtKeyUsages = append(spec.ExtKeyUsages, int(e))
	}
	return spec
}

// Certificate materializes the spec as a synthetic certificate.
func (s CertSpec) Certificate() (*certmodel.Certificate, error) {
	keyID, err := hex.DecodeString(s.KeyID)
	if err != nil {
		return nil, fmt.Errorf("scenario cert %q: bad key_id: %w", s.Serial, err)
	}
	signedBy, err := hex.DecodeString(s.SignedBy)
	if err != nil {
		return nil, fmt.Errorf("scenario cert %q: bad signed_by: %w", s.Serial, err)
	}
	akid, err := hex.DecodeString(s.AKIDOverride)
	if err != nil {
		return nil, fmt.Errorf("scenario cert %q: bad akid_override: %w", s.Serial, err)
	}
	cfg := certmodel.SyntheticConfig{
		Subject:               s.Subject,
		Issuer:                s.Issuer,
		Serial:                s.Serial,
		NotBefore:             time.Unix(s.NotBefore, 0).UTC(),
		NotAfter:              time.Unix(s.NotAfter, 0).UTC(),
		Key:                   certmodel.KeyFromID(keyID),
		SignedBy:              certmodel.KeyFromID(signedBy),
		OmitSKID:              s.OmitSKID,
		OmitAKID:              s.OmitAKID,
		KeyUsage:              certmodel.KeyUsage(s.KeyUsage),
		HasKeyUsage:           s.HasKeyUsage,
		IsCA:                  s.IsCA,
		BasicConstraintsValid: s.BasicConstraintsValid,
		MaxPathLen:            s.MaxPathLen,
		HasPathLen:            s.HasPathLen,
		DNSNames:              s.DNSNames,
		IPAddresses:           s.IPAddresses,
		AIAIssuerURLs:         s.AIAIssuerURLs,
		PermittedDNSDomains:   s.PermittedDNSDomains,
		ExcludedDNSDomains:    s.ExcludedDNSDomains,
		WeakSignature:         s.WeakSignature,
	}
	if len(akid) > 0 {
		cfg.AKIDOverride = akid
	}
	for _, e := range s.ExtKeyUsages {
		cfg.ExtKeyUsages = append(cfg.ExtKeyUsages, certmodel.ExtKeyUsage(e))
	}
	return certmodel.NewSynthetic(cfg), nil
}

// Scenario is one injectable chain topology: a deployed certificate list plus
// everything needed to grade it outside the fuzzer — the trust anchors it may
// chain to and the AIA repository entries AIA-capable clients fetch.
type Scenario struct {
	// Name identifies the scenario (the fuzzer uses its canonical digest).
	Name string `json:"name"`
	// Signature is the divergence signature that made the topology
	// interesting: the per-client verdict classes in fixed profile order.
	Signature string `json:"signature,omitempty"`
	// Causes lists the attributed divergence classes ("I-1".."I-4"), empty
	// for a topology outside the known classes.
	Causes []string `json:"causes,omitempty"`
	// Domain is the hostname the chain serves (the leaf's subject).
	Domain string `json:"domain"`
	// Certs is the deployed list, leaf first, exactly as a server would
	// present it.
	Certs []CertSpec `json:"certs"`
	// Roots are trust anchors the chain's paths may terminate at; replaying
	// contexts add them to their root stores before sealing.
	Roots []CertSpec `json:"roots,omitempty"`
	// AIA maps caIssuers URIs referenced by the list to the certificates an
	// AIA fetch must return.
	AIA map[string]CertSpec `json:"aia,omitempty"`
}

// MaterializedScenario is a scenario decoded into live certificates.
type MaterializedScenario struct {
	Name   string
	Domain string
	List   []*certmodel.Certificate
	Roots  []*certmodel.Certificate
	AIA    map[string]*certmodel.Certificate
}

// Materialize decodes every spec in the scenario.
func (s Scenario) Materialize() (*MaterializedScenario, error) {
	if len(s.Certs) == 0 {
		return nil, fmt.Errorf("scenario %q has no certificates", s.Name)
	}
	m := &MaterializedScenario{Name: s.Name, Domain: s.Domain}
	for _, spec := range s.Certs {
		c, err := spec.Certificate()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		m.List = append(m.List, c)
	}
	for _, spec := range s.Roots {
		c, err := spec.Certificate()
		if err != nil {
			return nil, fmt.Errorf("scenario %q root: %w", s.Name, err)
		}
		m.Roots = append(m.Roots, c)
	}
	if len(s.AIA) > 0 {
		m.AIA = make(map[string]*certmodel.Certificate, len(s.AIA))
		for uri, spec := range s.AIA {
			c, err := spec.Certificate()
			if err != nil {
				return nil, fmt.Errorf("scenario %q aia %s: %w", s.Name, uri, err)
			}
			m.AIA[uri] = c
		}
	}
	return m, nil
}

// AIAEntries returns the scenario's AIA map as (uri, cert) pairs in sorted
// URI order, for deterministic repository registration.
func (m *MaterializedScenario) AIAEntries() (uris []string, certs []*certmodel.Certificate) {
	for uri := range m.AIA {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	for _, uri := range uris {
		certs = append(certs, m.AIA[uri])
	}
	return uris, certs
}

// LoadScenarios reads a scenario file: a JSON array of Scenario objects, the
// format cmd/divfuzz emits.
func LoadScenarios(path string) ([]Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Scenario
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("scenario file %s: %w", path, err)
	}
	for i, s := range out {
		if s.Name == "" {
			return nil, fmt.Errorf("scenario file %s: entry %d has no name", path, i)
		}
		// Materialize now so a malformed spec fails at load time with the
		// file's name attached, not deep inside a generator worker.
		if _, err := s.Materialize(); err != nil {
			return nil, fmt.Errorf("scenario file %s: %w", path, err)
		}
	}
	return out, nil
}

// scenarioPlan decides, per rank, whether the site presents an injected
// scenario and which one. Draws live on their own salted streams, so loading
// zero scenarios leaves every other stream — and therefore the whole
// population — untouched.
func (c *Config) scenarioPlan(rank int) (bool, int) {
	if len(c.Scenarios) == 0 || c.ScenarioRate <= 0 {
		return false, 0
	}
	if Unit(c.Seed, rank, scenarioCoinSalt) >= c.ScenarioRate {
		return false, 0
	}
	return true, Pick(len(c.Scenarios), c.Seed, rank, scenarioPickSalt)
}

// scenarioDomain materializes one injected site: the scenario's chain
// verbatim under the scenario's own hostname, with a zero Truth (the defects
// are the fuzzer's discovery, not this generator's injection).
func (g *Generator) scenarioDomain(rank, idx int) *Domain {
	m := g.scenarios[idx]
	return &Domain{
		Rank:     rank,
		Name:     m.Domain,
		CA:       "fuzzed",
		Server:   "scenario",
		List:     m.List,
		Scenario: m.Name,
	}
}

// Package rootstore models trust anchor stores. The paper's completeness
// analysis (§3.1) matches the last certificate of each path against the union
// of the Mozilla, Chrome, Microsoft and Apple root programs, and Table 8
// quantifies how results shift when a client trusts only one vendor's store.
package rootstore

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"

	"chainchaos/internal/certmodel"
)

// Store is a set of trusted root certificates, indexed the three ways chain
// completion needs: by certificate identity (is this exact cert trusted?),
// by subject key identifier (does any root's SKID match this AKID?), and by
// subject DN (candidate roots for an orphan whose AKID is absent).
//
// The SKID and subject indexes are keyed by fixed-size keys: the SKID's
// first 8 bytes (certmodel.KeyIDPrefix) and the subject's cached 64-bit
// name key (Certificate.SubjectKey), so a lookup hashes 8 bytes instead of
// an identifier string or four name strings. Each hit is confirmed on the full identifier or name,
// and a key's list keeps insertion order, so a lookup returns what an index
// keyed by the full value would, in the same order; a shared key only
// lengthens a list.
//
// Stores follow a write-once-then-read-many lifecycle: populate with Add,
// then call Seal before handing the store to concurrent readers. Sealed
// stores answer every read without touching the mutex and without copying,
// which keeps the path-building hot loop allocation-free; unsealed stores
// remain fully mutex-guarded.
type Store struct {
	mu        sync.RWMutex
	sealed    atomic.Bool
	name      string
	byFP      map[certmodel.FP]*certmodel.Certificate
	bySKID    map[certmodel.KeyIDPrefix][]*certmodel.Certificate
	bySubject map[uint64][]*certmodel.Certificate // keyed by SubjectKey
}

// New creates an empty named store.
func New(name string) *Store {
	return &Store{
		name:      name,
		byFP:      make(map[certmodel.FP]*certmodel.Certificate),
		bySKID:    make(map[certmodel.KeyIDPrefix][]*certmodel.Certificate),
		bySubject: make(map[uint64][]*certmodel.Certificate),
	}
}

// NewWith creates a named store preloaded with roots.
func NewWith(name string, roots ...*certmodel.Certificate) *Store {
	s := New(name)
	for _, r := range roots {
		s.Add(r)
	}
	return s
}

// Name returns the store's name ("Mozilla", "union", ...).
func (s *Store) Name() string { return s.name }

// Seal freezes the store: subsequent Add calls panic and every read path
// skips the mutex. Seal must happen-before any read it is meant to
// de-synchronize (seal during single-threaded construction, then share);
// sealing twice is a no-op.
func (s *Store) Seal() {
	s.sealed.Store(true)
}

// Sealed reports whether the store has been sealed.
func (s *Store) Sealed() bool { return s.sealed.Load() }

// Add inserts a root. Adding the same certificate twice is a no-op. Add
// panics on a sealed store.
func (s *Store) Add(root *certmodel.Certificate) {
	if root == nil {
		return
	}
	if s.sealed.Load() {
		panic("rootstore: Add on sealed store " + s.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := root.Fingerprint()
	if _, ok := s.byFP[fp]; ok {
		return
	}
	s.byFP[fp] = root
	if len(root.SubjectKeyID) > 0 {
		k := certmodel.KeyIDPrefixOf(root.SubjectKeyID)
		s.bySKID[k] = append(s.bySKID[k], root)
	}
	k := root.SubjectKey()
	s.bySubject[k] = append(s.bySubject[k], root)
}

// Contains reports whether this exact certificate (bit-for-bit) is trusted.
func (s *Store) Contains(cert *certmodel.Certificate) bool {
	if cert == nil {
		return false
	}
	if !s.sealed.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	_, ok := s.byFP[cert.Fingerprint()]
	return ok
}

// FindBySKID returns the trusted roots whose SKID equals akid — the store
// lookup the paper performs for the AKID of a path's last certificate.
// Sealed stores return an internal slice that callers must not mutate,
// unless another root's SKID shares akid's first 8 bytes; then, as for
// unsealed stores, the result is a fresh slice.
func (s *Store) FindBySKID(akid []byte) []*certmodel.Certificate {
	if len(akid) == 0 {
		return nil
	}
	sealed := s.sealed.Load()
	if !sealed {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	roots := s.bySKID[certmodel.KeyIDPrefixOf(akid)]
	for i, root := range roots {
		if !bytes.Equal(root.SubjectKeyID, akid) {
			// A prefix neighbour: keep only the exact matches.
			out := append([]*certmodel.Certificate(nil), roots[:i]...)
			for _, r := range roots[i+1:] {
				if bytes.Equal(r.SubjectKeyID, akid) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	if sealed {
		return roots
	}
	return append([]*certmodel.Certificate(nil), roots...)
}

// FindIssuers returns the trusted roots that actually issued cert under the
// paper's issuance rule (signature plus DN-or-KID).
func (s *Store) FindIssuers(cert *certmodel.Certificate) []*certmodel.Certificate {
	return s.AppendIssuers(nil, cert)
}

// AppendIssuers appends the trusted roots that issued cert to dst and
// returns the extended slice — the allocation-free form of FindIssuers for
// callers that own a reusable buffer. Duplicate roots reachable through both
// the SKID and the subject index are folded by pointer identity, which is
// sound because Add deduplicates by fingerprint: within one store, equal
// bytes means the same pointer.
func (s *Store) AppendIssuers(dst []*certmodel.Certificate, cert *certmodel.Certificate) []*certmodel.Certificate {
	if cert == nil {
		return dst
	}
	if !s.sealed.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	base := len(dst)
	if len(cert.AuthorityKeyID) > 0 {
		// A root appears at most once per chain, so no dedup is needed
		// within the SKID pass.
		for _, root := range s.bySKID[certmodel.KeyIDPrefixOf(cert.AuthorityKeyID)] {
			if bytes.Equal(root.SubjectKeyID, cert.AuthorityKeyID) && certmodel.Issued(root, cert) {
				dst = append(dst, root)
			}
		}
	}
	for _, root := range s.bySubject[cert.IssuerKey()] {
		if root.Subject != cert.Issuer {
			continue
		}
		dup := false
		for _, have := range dst[base:] {
			if have == root {
				dup = true
				break
			}
		}
		if !dup && certmodel.Issued(root, cert) {
			dst = append(dst, root)
		}
	}
	return dst
}

// HasIssuer reports whether any trusted root issued cert, without
// materializing the issuer list.
func (s *Store) HasIssuer(cert *certmodel.Certificate) bool {
	if cert == nil {
		return false
	}
	if !s.sealed.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	if len(cert.AuthorityKeyID) > 0 {
		for _, root := range s.bySKID[certmodel.KeyIDPrefixOf(cert.AuthorityKeyID)] {
			if bytes.Equal(root.SubjectKeyID, cert.AuthorityKeyID) && certmodel.Issued(root, cert) {
				return true
			}
		}
	}
	for _, root := range s.bySubject[cert.IssuerKey()] {
		if root.Subject == cert.Issuer && certmodel.Issued(root, cert) {
			return true
		}
	}
	return false
}

// Len returns the number of roots in the store.
func (s *Store) Len() int {
	if !s.sealed.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return len(s.byFP)
}

// All returns the roots in a deterministic (fingerprint-sorted) order.
func (s *Store) All() []*certmodel.Certificate {
	if !s.sealed.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	out := make([]*certmodel.Certificate, 0, len(s.byFP))
	for _, root := range s.byFP {
		out = append(out, root)
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := out[i].Fingerprint(), out[j].Fingerprint()
		return bytes.Compare(fi[:], fj[:]) < 0
	})
	return out
}

// Union combines stores into a new store named name. The paper uses the
// four-vendor union to avoid overstating incompleteness.
func Union(name string, stores ...*Store) *Store {
	u := New(name)
	for _, s := range stores {
		for _, root := range s.All() {
			u.Add(root)
		}
	}
	return u
}

// Vendor is a root program: the store a client trusts as deployed.
type Vendor int

// The four root programs the paper consults, in its column order.
const (
	Mozilla Vendor = iota
	Chrome
	Microsoft
	Apple
	numVendors
)

var vendorNames = [numVendors]string{"Mozilla", "Chrome", "Microsoft", "Apple"}

// String returns the root program's name, which also names its store.
func (v Vendor) String() string { return vendorNames[v] }

// VendorSet groups the four vendor stores the paper consults plus their
// union.
type VendorSet struct {
	stores [numVendors]*Store
	Union  *Store
}

// Store returns the vendor's store.
func (v *VendorSet) Store(vendor Vendor) *Store { return v.stores[vendor] }

// Stores returns the four vendor stores in the paper's column order.
func (v *VendorSet) Stores() []*Store {
	stores := v.stores
	return stores[:]
}

// Seal freezes all five stores (the four vendors and their union).
func (v *VendorSet) Seal() {
	for _, s := range v.stores {
		s.Seal()
	}
	v.Union.Seal()
}

// NewVendorSet builds four vendor stores over the given roots. Membership is
// controlled by the omit function: omit(root, vendor) reports that vendor's
// store does NOT carry the root. A nil omit includes every root everywhere.
func NewVendorSet(roots []*certmodel.Certificate, omit func(root *certmodel.Certificate, vendor Vendor) bool) *VendorSet {
	v := &VendorSet{}
	for vendor := range numVendors {
		v.stores[vendor] = New(vendor.String())
	}
	for _, root := range roots {
		for vendor, s := range v.stores {
			if omit == nil || !omit(root, Vendor(vendor)) {
				s.Add(root)
			}
		}
	}
	v.Union = Union("union", v.stores[:]...)
	return v
}

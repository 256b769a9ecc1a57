// Package aia implements the Authority Information Access machinery: an
// issuer-certificate repository addressable by URI, fetchers (in-memory and
// real HTTP), and a recursive chaser that completes chains with missing
// intermediates the way AIA-capable clients (CryptoAPI, Chromium) do.
//
// The paper finds AIA support to be the single most decisive chain-building
// capability: 94.5% of incomplete chains are recoverable by recursively
// downloading issuers, and 8,553 chains validate only in the AIA-capable
// library (§5.2, I-4).
package aia

import (
	"errors"
	"fmt"
	"sync"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/obs"
)

// ErrNotFound is returned when no certificate is published at a URI.
var ErrNotFound = errors.New("aia: no certificate at URI")

// Fetcher retrieves the certificate published at an AIA caIssuers URI.
type Fetcher interface {
	Fetch(uri string) (*certmodel.Certificate, error)
}

// Repository is an in-memory certificate repository keyed by URI. It plays
// the role of the CAs' public HTTP repositories. It is safe for concurrent
// use.
type Repository struct {
	mu       sync.RWMutex
	certs    map[string]*certmodel.Certificate
	failures map[string]error

	mFetches *obs.Counter // aia.fetches
	mHits    *obs.Counter // aia.hits: a certificate was published at the URI
	mMisses  *obs.Counter // aia.misses: dead or unknown URI
}

// Instrument wires the repository's fetch counters into reg (aia.fetches /
// aia.hits / aia.misses) and returns the repository for chaining. A nil
// registry detaches the counters.
func (r *Repository) Instrument(reg *obs.Registry) *Repository {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mFetches = reg.Counter("aia.fetches")
	r.mHits = reg.Counter("aia.hits")
	r.mMisses = reg.Counter("aia.misses")
	return r
}

// NewRepository creates an empty repository.
func NewRepository() *Repository {
	return &Repository{
		certs:    make(map[string]*certmodel.Certificate),
		failures: make(map[string]error),
	}
}

// Put publishes cert at uri.
func (r *Repository) Put(uri string, cert *certmodel.Certificate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.certs[uri] = cert
	delete(r.failures, uri)
}

// PutError makes fetches of uri fail with err — a dead or unreachable URI
// (the paper found 88 such chains).
func (r *Repository) PutError(uri string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures[uri] = err
	delete(r.certs, uri)
}

// Fetch implements Fetcher.
func (r *Repository) Fetch(uri string) (*certmodel.Certificate, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.mFetches.Inc()
	if err, ok := r.failures[uri]; ok {
		r.mMisses.Inc()
		return nil, fmt.Errorf("aia: fetch %s: %w", uri, err)
	}
	if cert, ok := r.certs[uri]; ok {
		r.mHits.Inc()
		return cert, nil
	}
	r.mMisses.Inc()
	return nil, fmt.Errorf("aia: fetch %s: %w", uri, ErrNotFound)
}

// Len returns the number of published certificates.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.certs)
}

// Terminal describes how a recursive AIA chase ended.
type Terminal int

const (
	// ReachedRoot: the chase reached a self-signed certificate or one whose
	// issuer is already trusted.
	ReachedRoot Terminal = iota
	// NoAIA: a certificate in the chase carries no caIssuers URI.
	NoAIA
	// FetchFailed: a URI could not be retrieved.
	FetchFailed
	// WrongIssuer: the certificate at the URI is not the issuer of the
	// certificate that referenced it (the CAcert class3.crt self-pointer).
	WrongIssuer
	// DepthExceeded: the chase hit its depth limit.
	DepthExceeded
)

// String returns the terminal's name.
func (t Terminal) String() string {
	switch t {
	case ReachedRoot:
		return "reached-root"
	case NoAIA:
		return "no-aia"
	case FetchFailed:
		return "fetch-failed"
	case WrongIssuer:
		return "wrong-issuer"
	case DepthExceeded:
		return "depth-exceeded"
	default:
		return fmt.Sprintf("terminal(%d)", int(t))
	}
}

// ChaseResult reports a recursive chase: the issuers fetched in order, and
// why the chase stopped.
type ChaseResult struct {
	Fetched  []*certmodel.Certificate
	Terminal Terminal
	// Err carries the underlying fetch error: always set when Terminal is
	// FetchFailed, and also set for WrongIssuer when some URIs failed while
	// others answered with the wrong certificate — the dead-URI/wrong-cert
	// distinction the paper draws in §4.3 is preserved, not collapsed.
	Err error
}

// Completed reports whether the chase ended at a root.
func (r ChaseResult) Completed() bool { return r.Terminal == ReachedRoot }

// Chaser recursively downloads issuers through AIA.
type Chaser struct {
	Fetcher Fetcher
	// MaxDepth bounds the number of fetches per chase; 0 means the default
	// of 8 (deep chains beyond that do not occur in the Web PKI).
	MaxDepth int
	// TrustedIssuer, when non-nil, lets the chase stop early once a fetched
	// certificate's issuer is already trusted (a root-store membership
	// test), mirroring clients that stop at a known anchor.
	TrustedIssuer func(*certmodel.Certificate) bool
}

// Chase fetches issuers starting from cert until it reaches a self-signed
// certificate, a trusted issuer, or a terminal failure.
func (c *Chaser) Chase(cert *certmodel.Certificate) ChaseResult {
	maxDepth := c.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 8
	}
	var result ChaseResult
	current := cert
	seen := map[certmodel.FP]bool{cert.Fingerprint(): true}
	for depth := 0; ; depth++ {
		if current.SelfSigned() {
			result.Terminal = ReachedRoot
			return result
		}
		if c.TrustedIssuer != nil && c.TrustedIssuer(current) {
			result.Terminal = ReachedRoot
			return result
		}
		if depth >= maxDepth {
			result.Terminal = DepthExceeded
			return result
		}
		if len(current.AIAIssuerURLs) == 0 {
			result.Terminal = NoAIA
			return result
		}
		next, answered, ferr := c.fetchIssuer(current)
		if next == nil {
			if answered {
				// At least one URI served a certificate, just not the
				// issuer; ferr still records any URIs that also failed.
				result.Terminal = WrongIssuer
			} else {
				result.Terminal = FetchFailed
			}
			result.Err = ferr
			return result
		}
		if seen[next.Fingerprint()] {
			// Fetching loops back onto an already-seen certificate; the
			// chase can make no progress.
			result.Terminal = WrongIssuer
			return result
		}
		seen[next.Fingerprint()] = true
		result.Fetched = append(result.Fetched, next)
		current = next
	}
}

// fetchIssuer tries each caIssuers URI in order and returns the first
// certificate that actually issued cert, whether any URI answered at all,
// and the last fetch error. A nil certificate with answered=true is the
// WrongIssuer case; the error is carried either way so a chase with one
// dead URI and one wrong-cert URI loses neither signal.
func (c *Chaser) fetchIssuer(cert *certmodel.Certificate) (found *certmodel.Certificate, answered bool, lastErr error) {
	for _, uri := range cert.AIAIssuerURLs {
		fetched, err := c.Fetcher.Fetch(uri)
		if err != nil {
			lastErr = err
			continue
		}
		answered = true
		if certmodel.Issued(fetched, cert) {
			return fetched, true, lastErr
		}
	}
	return nil, answered, lastErr
}

package certmodel

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"chainchaos/internal/obs"
)

// The signature memo remembers real X.509 signature checks by the pair of
// certificate fingerprints, so each distinct (child, parent) pair pays for
// one public-key verification per process however many graders, client
// models and chain positions ask about it. A dedup study's chains all hang
// off one shared CA spine; without the memo every distinct chain re-verified
// the spine dozens of times.
//
// Soundness: CheckSignature reads only the child's TBS bytes, signature
// algorithm and signature value and the parent's SubjectPublicKeyInfo. All
// of them lie inside the two DER encodings, and FromX509 — the only code
// that sets X509 — sets Raw to exactly that DER, so the SHA-256 fingerprints
// name every input of the check. Equal key, equal answer.
//
// Bound: the table is direct-mapped with a fixed slot count. A new pair
// overwrites whatever occupied its slot, so untrusted input (chainserved's
// request bodies) can evict entries but never grow the table. Entries hold
// fingerprints only, never a *Certificate, so nothing a caller dropped stays
// reachable from here.

// sigMemoSlots is the memo's fixed capacity. Each slot is one pointer and a
// filled slot holds one 80-byte entry, so the table never exceeds about
// 360 KB.
const sigMemoSlots = 1 << 12

// sigMemoEntry is one remembered verification. Entries are immutable once
// published: a colliding pair replaces the slot's pointer wholesale, so a
// reader sees the old entry or the new one, never a mix of the two.
type sigMemoEntry struct {
	child, parent FP
	ok            bool
}

var (
	sigMemo [sigMemoSlots]atomic.Pointer[sigMemoEntry]

	// sigVerifies counts real public-key verifications and sigMemoHits the
	// checks answered from the memo. Both count X.509 checks only; the
	// synthetic back end's byte compare is neither.
	sigVerifies, sigMemoHits atomic.Int64
)

func init() {
	obs.PublishProcessCounter("certmodel.sig_verifies", sigVerifies.Load)
	obs.PublishProcessCounter("certmodel.sig_memo_hits", sigMemoHits.Load)
}

// sigMemoSlot maps a fingerprint pair to its slot. Fingerprints are SHA-256
// outputs, so eight bytes of each are already uniform; the rotation keeps
// (a, b) and (b, a) apart and a self-signed pair (a, a) off slot zero.
func sigMemoSlot(child, parent *FP) uint64 {
	h := binary.LittleEndian.Uint64(child[:8]) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(parent[:8]), 29)
	return h & (sigMemoSlots - 1)
}

// verifyX509 reports whether parent's key verifies child's signature, both
// being real certificates, answering from the memo when it holds the pair.
func verifyX509(child, parent *Certificate) bool {
	cf, pf := child.Fingerprint(), parent.Fingerprint()
	slot := &sigMemo[sigMemoSlot(&cf, &pf)]
	if e := slot.Load(); e != nil && e.child == cf && e.parent == pf {
		sigMemoHits.Add(1)
		return e.ok
	}
	sigVerifies.Add(1)
	ok := parent.X509.CheckSignature(child.X509.SignatureAlgorithm, child.X509.RawTBSCertificate, child.X509.Signature) == nil
	slot.Store(&sigMemoEntry{child: cf, parent: pf, ok: ok})
	return ok
}

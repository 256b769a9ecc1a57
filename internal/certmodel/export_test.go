package certmodel

// SigMemoSlot exposes the memo slot of a (child, parent) pair, so the
// external tests can find pairs that collide.
func SigMemoSlot(child, parent *Certificate) uint64 {
	cf, pf := child.Fingerprint(), parent.Fingerprint()
	return sigMemoSlot(&cf, &pf)
}

// SigCounts returns the process-wide real-verification and memo-hit counts.
func SigCounts() (verifies, hits int64) {
	return sigVerifies.Load(), sigMemoHits.Load()
}

// EncodeSyntheticRef is the fmt reference encoder, for the external fuzz
// target.
func EncodeSyntheticRef(c *Certificate) []byte { return encodeSyntheticRef(c) }

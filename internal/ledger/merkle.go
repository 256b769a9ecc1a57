// Package ledger makes the measurement outputs tamper-evident: every JSONL
// result line a run emits becomes a leaf of an RFC-6962-style Merkle tree,
// batches of Size leaves are rooted, and the batch roots are anchored in the
// run's checkpoint journal. Any historical verdict line then carries an
// inclusion proof against an anchored root, an auditor re-hashing the output
// file can prove it untampered (or pinpoint the corrupted rank), and the
// sequence of batch roots itself folds into a single run root so one hash
// commits to the whole study.
//
// The hashing follows RFC 6962 §2.1: leaves are hashed under a 0x00 domain-
// separation prefix, interior nodes under 0x01, and the tree over n leaves
// splits at the largest power of two strictly less than n. That shape is a
// pure function of the leaf sequence — no balancing state, no insertion
// timing — which is what lets a resumed run re-anchor exactly the roots an
// uninterrupted run would have written.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
)

// Hash is one SHA-256 tree hash.
type Hash = [sha256.Size]byte

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one record line (without its trailing newline) as a tree
// leaf: SHA256(0x00 || line).
func LeafHash(line []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(line)
	var out Hash
	h.Sum(out[:0])
	return out
}

// NodeHash combines two subtree hashes: SHA256(0x01 || left || right).
func NodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// EmptyRoot is the root of a zero-leaf tree: SHA256 of the empty string, per
// RFC 6962.
func EmptyRoot() Hash { return sha256.Sum256(nil) }

// split returns the largest power of two strictly less than n (n >= 2).
func split(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// RootOf computes the Merkle tree hash over the given leaf hashes.
func RootOf(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return EmptyRoot()
	case 1:
		return leaves[0]
	}
	k := split(len(leaves))
	return NodeHash(RootOf(leaves[:k]), RootOf(leaves[k:]))
}

// InclusionProof returns the RFC 6962 audit path for leaf index i of the
// tree over the given leaf hashes: the sibling subtree hashes, leaf-most
// first, that combine with leaf i to reproduce the root.
func InclusionProof(leaves []Hash, i int) []Hash {
	if i < 0 || i >= len(leaves) || len(leaves) == 1 {
		return nil
	}
	k := split(len(leaves))
	if i < k {
		return append(InclusionProof(leaves[:k], i), RootOf(leaves[k:]))
	}
	return append(InclusionProof(leaves[k:], i-k), RootOf(leaves[:k]))
}

// VerifyInclusion checks an audit path: true iff leaf sits at index i of a
// size-leaf tree with the given root.
func VerifyInclusion(root Hash, size, i int, leaf Hash, proof []Hash) bool {
	if i < 0 || i >= size || size <= 0 {
		return false
	}
	got, rest, ok := rootFromPath(size, i, leaf, proof)
	return ok && len(rest) == 0 && got == root
}

// rootFromPath recomputes the subtree root for a size-leaf tree containing
// leaf at index i, consuming proof nodes outermost-last.
func rootFromPath(size, i int, leaf Hash, proof []Hash) (Hash, []Hash, bool) {
	if size == 1 {
		return leaf, proof, true
	}
	if len(proof) == 0 {
		return Hash{}, nil, false
	}
	sibling := proof[len(proof)-1]
	proof = proof[:len(proof)-1]
	k := split(size)
	if i < k {
		sub, rest, ok := rootFromPath(k, i, leaf, proof)
		return NodeHash(sub, sibling), rest, ok
	}
	sub, rest, ok := rootFromPath(size-k, i-k, leaf, proof)
	return NodeHash(sibling, sub), rest, ok
}

// HexHash renders a tree hash as lowercase hex — the journal anchor format.
func HexHash(h Hash) string { return hex.EncodeToString(h[:]) }

// ParseHash parses a HexHash back into a tree hash.
func ParseHash(s string) (Hash, bool) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return h, false
	}
	copy(h[:], b)
	return h, true
}

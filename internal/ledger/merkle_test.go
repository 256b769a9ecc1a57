package ledger

import (
	"encoding/hex"
	"math/rand"
	"testing"
)

// rfc6962Leaves are the Certificate Transparency reference inputs used by
// every interoperable implementation's known-answer tests.
func rfc6962Leaves() [][]byte {
	hexLeaves := []string{
		"", "00", "10", "2021", "3031", "40414243", "5051525354555657", "606162636465666768696a6b6c6d6e6f",
	}
	out := make([][]byte, len(hexLeaves))
	for i, s := range hexLeaves {
		b, err := hex.DecodeString(s)
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}

func hashLeaves(lines [][]byte) []Hash {
	out := make([]Hash, len(lines))
	for i, l := range lines {
		out[i] = LeafHash(l)
	}
	return out
}

func TestKnownAnswerRoots(t *testing.T) {
	leaves := hashLeaves(rfc6962Leaves())
	want := map[int]string{
		0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		1: "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
		2: "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
		3: "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
		8: "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
	}
	for n, hexRoot := range want {
		if got := HexHash(RootOf(leaves[:n])); got != hexRoot {
			t.Errorf("RootOf(%d leaves) = %s, want %s", n, got, hexRoot)
		}
	}
}

func randomLeaves(rng *rand.Rand, n int) []Hash {
	out := make([]Hash, n)
	for i := range out {
		line := make([]byte, 1+rng.Intn(40))
		rng.Read(line)
		out[i] = LeafHash(line)
	}
	return out
}

func TestInclusionProofsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(130)
		leaves := randomLeaves(rng, n)
		root := RootOf(leaves)
		for i := 0; i < n; i++ {
			proof := InclusionProof(leaves, i)
			if !VerifyInclusion(root, n, i, leaves[i], proof) {
				t.Fatalf("n=%d i=%d: valid proof rejected", n, i)
			}
			// Wrong leaf, wrong index, and a flipped proof bit must all fail.
			bad := leaves[i]
			bad[0] ^= 1
			if VerifyInclusion(root, n, i, bad, proof) {
				t.Fatalf("n=%d i=%d: corrupted leaf accepted", n, i)
			}
			if n > 1 && VerifyInclusion(root, n, (i+1)%n, leaves[i], proof) {
				t.Fatalf("n=%d i=%d: wrong index accepted", n, i)
			}
			if len(proof) > 0 {
				j := rng.Intn(len(proof))
				proof[j][rng.Intn(32)] ^= 1 << uint(rng.Intn(8))
				if VerifyInclusion(root, n, i, leaves[i], proof) {
					t.Fatalf("n=%d i=%d: corrupted proof accepted", n, i)
				}
			}
		}
	}
}

func TestCompactRangeMatchesDirectRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		leaves := randomLeaves(rng, n)
		want := RootOf(leaves)

		// Split the leaf span at random points, build a compact range per
		// segment, merge in order: the fold must be split-point invariant.
		cuts := []int{0}
		for p := 1; p < n; p++ {
			if rng.Intn(3) == 0 {
				cuts = append(cuts, p)
			}
		}
		cuts = append(cuts, n)
		full := NewCompactRange(0)
		for c := 0; c+1 < len(cuts); c++ {
			seg := NewCompactRange(cuts[c])
			for i := cuts[c]; i < cuts[c+1]; i++ {
				seg.AppendLeaf(leaves[i])
			}
			// Round-trip through the wire form, as dist does.
			back, err := FromWire(seg.Wire(0))
			if err != nil {
				t.Fatalf("wire round-trip: %v", err)
			}
			if err := full.Merge(back); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		got, ok := full.Root()
		if !ok || got != want {
			t.Fatalf("n=%d cuts=%v: folded root mismatch", n, cuts)
		}
	}
}

func TestFromWireRejectsMalformed(t *testing.T) {
	seg := NewCompactRange(4)
	for i := 0; i < 4; i++ {
		seg.AppendLeaf(LeafHash([]byte{byte(i)}))
	}
	w := seg.Wire(0)
	if _, err := FromWire(w); err != nil {
		t.Fatalf("valid wire rejected: %v", err)
	}
	bad := w
	bad.Hi++
	if _, err := FromWire(bad); err == nil {
		t.Error("span/coverage mismatch accepted")
	}
	bad = w
	bad.Nodes = append([]WireNode(nil), w.Nodes...)
	bad.Nodes[0].Hash = "zz"
	if _, err := FromWire(bad); err == nil {
		t.Error("malformed hash accepted")
	}
	bad = w
	bad.Nodes = append([]WireNode(nil), w.Nodes...)
	bad.Nodes[0].Start++
	if _, err := FromWire(bad); err == nil {
		t.Error("misaligned node accepted")
	}
}

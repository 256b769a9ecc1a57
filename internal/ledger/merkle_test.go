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

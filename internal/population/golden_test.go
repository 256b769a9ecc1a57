package population

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// populationDigest hashes, in rank order, every domain's rank, name and
// ground truth and the Raw bytes of its deployed list.
func populationDigest(pop *Population) string {
	h := sha256.New()
	for _, d := range pop.Domains {
		fmt.Fprintf(h, "%d %q %+v %d\n", d.Rank, d.Name, d.Truth, len(d.List))
		for _, c := range d.List {
			fmt.Fprintf(h, "%d\n", len(c.Raw))
			h.Write(c.Raw)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPopulationDigestGolden pins the generated population byte for byte.
// The digests are those of math/rand's own source and the fmt encoder, which
// the lazy replica and the append encoder must reproduce. Any change to the
// per-rank random stream, the defect injection or the Raw encoding moves a
// digest here; such a change alters every published population, so it must
// update these values deliberately.
func TestPopulationDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"unique", Config{Size: 5000, Seed: 1}, "56a0909f0b4ab3b039eba82704b442109937c199018596ad3b9b2b5626492330"},
		{"reuse", Config{Size: 5000, Seed: 1, ChainReuse: 0.9, ChainPool: 64}, "c1303630f78fbbcd3362969ae4480a2ac8b853c5dc57445ea243808bd6f17336"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := populationDigest(Generate(tc.cfg)); got != tc.want {
				t.Errorf("population digest = %s, want %s", got, tc.want)
			}
		})
	}
}

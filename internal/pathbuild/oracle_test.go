package pathbuild

import (
	"math/rand"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/validate"
)

// oracleExists brute-forces every certificate sequence starting at list[0]
// (plus optional store roots as terminal elements) and reports whether ANY
// validates — the ground truth a complete path builder should match.
func oracleExists(list []*certmodel.Certificate, roots *rootstore.Store, opts validate.Options) bool {
	if len(list) == 0 {
		return false
	}
	var walk func(path []*certmodel.Certificate, used map[int]bool) bool
	walk = func(path []*certmodel.Certificate, used map[int]bool) bool {
		if validate.Path(path, opts).OK {
			return true
		}
		if len(path) > len(list)+2 {
			return false
		}
		for i, cand := range list {
			if used[i] {
				continue
			}
			used[i] = true
			if walk(append(path, cand), used) {
				return true
			}
			delete(used, i)
		}
		// Try appending a store root as terminal.
		for _, root := range roots.All() {
			if walk2 := append(path, root); validate.Path(walk2, opts).OK {
				return true
			}
		}
		return false
	}
	return walk([]*certmodel.Certificate{list[0]}, map[int]bool{0: true})
}

// randomDeployment builds a small random deployment out of a two-hierarchy
// pool, applying random corruption: shuffling, dropping, duplicating and
// injecting strangers.
func randomDeployment(r *rand.Rand, tag string) ([]*certmodel.Certificate, *rootstore.Store) {
	rootA := certmodel.SyntheticRoot("Oracle Root A "+tag, base)
	rootB := certmodel.SyntheticRoot("Oracle Root B "+tag, base)
	caA := certmodel.SyntheticIntermediate("Oracle CA A "+tag, rootA, base)
	caB := certmodel.SyntheticIntermediate("Oracle CA B "+tag, rootB, base)
	var leaf *certmodel.Certificate
	var chain []*certmodel.Certificate
	if r.Intn(2) == 0 {
		leaf = certmodel.SyntheticLeaf("oracle-"+tag+".example", "1", caA, base, base.AddDate(1, 0, 0))
		chain = []*certmodel.Certificate{leaf, caA, rootA}
	} else {
		leaf = certmodel.SyntheticLeaf("oracle-"+tag+".example", "1", caB, base, base.AddDate(1, 0, 0))
		chain = []*certmodel.Certificate{leaf, caB, rootB}
	}

	list := append([]*certmodel.Certificate(nil), chain...)
	// Random corruption.
	switch r.Intn(5) {
	case 0: // reversed
		list = []*certmodel.Certificate{list[0], list[2], list[1]}
	case 1: // drop the intermediate
		list = []*certmodel.Certificate{list[0], list[2]}
	case 2: // duplicate everything once
		list = append(list, list[1], list[2])
	case 3: // inject strangers
		list = append(list, caB, rootB, caA)
	case 4: // keep compliant
	}
	// Random extra shuffle of the tail (never the leaf).
	if len(list) > 2 && r.Intn(2) == 0 {
		tail := list[1:]
		r.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	}

	var roots *rootstore.Store
	switch r.Intn(3) {
	case 0:
		roots = rootstore.NewWith("oracle", rootA)
	case 1:
		roots = rootstore.NewWith("oracle", rootB)
	default:
		roots = rootstore.NewWith("oracle", rootA, rootB)
	}
	return list, roots
}

// TestOracleAgreement: the recommended (backtracking, reordering) policy
// succeeds exactly when the exhaustive oracle proves a valid path exists.
func TestOracleAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	agree, disagreeBuildWeaker, disagreeBuildStronger := 0, 0, 0
	for i := 0; i < 300; i++ {
		list, roots := randomDeployment(r, string(rune('a'+i%26))+string(rune('0'+i%10)))
		pol := DefaultPolicy()
		pol.AIA = false
		b := &Builder{Policy: pol, Roots: roots, Now: base.AddDate(0, 1, 0)}
		got := b.Build(list, "").OK()
		want := oracleExists(list, roots, validate.Options{Roots: roots, Now: base.AddDate(0, 1, 0)})
		switch {
		case got == want:
			agree++
		case want && !got:
			disagreeBuildWeaker++
			t.Errorf("case %d: oracle finds a valid path the builder misses (list %d certs)", i, len(list))
		default:
			disagreeBuildStronger++
			t.Errorf("case %d: builder validated a path the oracle cannot find", i)
		}
	}
	t.Logf("oracle agreement: %d/%d", agree, 300)
}

// TestPathNeverRepeatsCertificates: the constructed path must never contain
// the same certificate twice, for any corrupted deployment — the usedFP
// invariant that keeps cross-signing cycles finite.
func TestPathNeverRepeatsCertificates(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for i := 0; i < 400; i++ {
		list, roots := randomDeployment(r, "rep"+string(rune('a'+i%26)))
		for _, policy := range []Policy{
			DefaultPolicy(),
			{Name: "fwd", PartialValidation: true},
			{Name: "bt", Reorder: true, Backtrack: true},
		} {
			policy.AIA = false
			b := &Builder{Policy: policy, Roots: roots, Now: base.AddDate(0, 1, 0)}
			out := b.Build(list, "")
			seen := map[certmodel.FP]bool{}
			for _, c := range out.Path {
				fp := c.Fingerprint()
				if seen[fp] {
					t.Fatalf("case %d policy %s: certificate repeated in path", i, policy.Name)
				}
				seen[fp] = true
			}
		}
	}
}

package topo

import (
	"math/rand"
	"testing"

	"chainchaos/internal/certmodel"
)

// randomList draws a list from a fixed pool of related and unrelated
// certificates, with duplicates allowed.
func randomList(r *rand.Rand) []*certmodel.Certificate {
	root := certmodel.SyntheticRoot("Prop Root", base)
	i1 := certmodel.SyntheticIntermediate("Prop CA 1", root, base)
	i2 := certmodel.SyntheticIntermediate("Prop CA 2", i1, base)
	leafA := certmodel.SyntheticLeaf("prop-a.example", "a", i2, base, base.AddDate(1, 0, 0))
	stranger := certmodel.SyntheticRoot("Prop Stranger", base)
	pool := []*certmodel.Certificate{root, i1, i2, leafA, stranger}

	n := 1 + r.Intn(8)
	list := make([]*certmodel.Certificate, 0, n+1)
	list = append(list, leafA) // position 0 is always the leaf
	for i := 0; i < n; i++ {
		list = append(list, pool[r.Intn(len(pool))])
	}
	return list
}

// TestPropertyFoldingPreservesDistinctCerts: node count equals the number of
// distinct fingerprints, and every occurrence is accounted for.
func TestPropertyFoldingPreservesDistinctCerts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		list := randomList(r)
		g := Build(list)
		distinct := map[certmodel.FP]bool{}
		for _, c := range list {
			distinct[c.Fingerprint()] = true
		}
		if len(g.Nodes) != len(distinct) {
			t.Fatalf("case %d: nodes=%d distinct=%d", i, len(g.Nodes), len(distinct))
		}
		occ := 0
		for _, n := range g.Nodes {
			occ += len(n.Occurrences)
		}
		if occ != len(list) {
			t.Fatalf("case %d: occurrences=%d list=%d", i, occ, len(list))
		}
	}
}

// TestPropertySequentialImpliesNotReversed: a list satisfying the TLS 1.2
// sequential rule can never contain a reversed path.
func TestPropertySequentialImpliesNotReversed(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	checked := 0
	for i := 0; i < 2000; i++ {
		list := randomList(r)
		if !SequentialOrderOK(list) {
			continue
		}
		g := Build(list)
		if g.HasDuplicates() {
			// Duplicates legitimately relabel positions; the implication
			// is only claimed for duplicate-free lists.
			continue
		}
		checked++
		if rev, _ := g.ReversedSequences(); rev {
			t.Fatalf("case %d: sequential list reported reversed: %s", i, g)
		}
	}
	if checked == 0 {
		t.Skip("no sequential duplicate-free samples drawn")
	}
}

// TestPropertyPathsStartAtLeafAndFollowIssuance: every reported path starts
// at position 0 and every step is a genuine issuance link.
func TestPropertyPathsStartAtLeafAndFollowIssuance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		g := Build(randomList(r))
		for _, p := range g.Paths() {
			if len(p) == 0 || p[0].Index != 0 {
				t.Fatalf("case %d: path does not start at the leaf: %v", i, p)
			}
			for j := 0; j+1 < len(p); j++ {
				if !certmodel.Issued(p[j+1].Cert, p[j].Cert) {
					t.Fatalf("case %d: non-issuance step %d", i, j)
				}
			}
			// No node repeats within one path.
			seen := map[*Node]bool{}
			for _, n := range p {
				if seen[n] {
					t.Fatalf("case %d: node repeated on a path", i)
				}
				seen[n] = true
			}
		}
	}
}

// TestPropertyIrrelevantDisjointFromPaths: the irrelevant set never
// intersects any path.
func TestPropertyIrrelevantDisjointFromPaths(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		g := Build(randomList(r))
		irrelevant := map[*Node]bool{}
		for _, n := range g.IrrelevantNodes() {
			irrelevant[n] = true
		}
		for _, p := range g.Paths() {
			for _, n := range p {
				if irrelevant[n] {
					t.Fatalf("case %d: path node flagged irrelevant", i)
				}
			}
		}
		if len(g.IrrelevantNodes())+relevantNodes(g) != len(g.Nodes) {
			t.Fatalf("case %d: relevant/irrelevant partition broken", i)
		}
	}
}

// relevantNodes counts the nodes the path walk marks relevant: the leaf and
// every node reachable from it along issuance edges, not past a self-signed
// certificate.
func relevantNodes(g *Graph) int {
	g.Paths() // the walk sets the relevance marks
	n := 0
	for _, node := range g.Nodes {
		if node.relevant {
			n++
		}
	}
	return n
}

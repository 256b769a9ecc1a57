package topo

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"chainchaos/internal/certmodel"
)

var base = time.Date(2024, time.March, 1, 0, 0, 0, 0, time.UTC)

// pki builds a small synthetic hierarchy: root -> i1 -> i2 -> leaf.
func pki(t testing.TB) (root, i1, i2, leaf *certmodel.Certificate) {
	t.Helper()
	root = certmodel.SyntheticRoot("Topo Root", base)
	i1 = certmodel.SyntheticIntermediate("Topo CA 1", root, base)
	i2 = certmodel.SyntheticIntermediate("Topo CA 2", i1, base)
	leaf = certmodel.SyntheticLeaf("topo.example", "1", i2, base, base.AddDate(1, 0, 0))
	return
}

// crossSigned builds the USERTrust shape of Figure 2c: the issuing CA's
// issuer exists in two variants sharing subject and key — a self-signed root
// and a cross-signed certificate chaining to an older root ("AAA").
func crossSigned() (leaf, issuing, aaa, cross, usertrust *certmodel.Certificate) {
	usertrust = certmodel.SyntheticRoot("USERTrust RSA Certification Authority", base)
	aaa = certmodel.SyntheticRoot("AAA Certificate Services", base)
	cross = certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: usertrust.Subject, Issuer: aaa.Subject, Serial: "cross",
		NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
		Key: certmodel.KeyOf(usertrust), SignedBy: certmodel.KeyOf(aaa),
		IsCA: true, BasicConstraintsValid: true,
		KeyUsage: certmodel.KeyUsageCertSign, HasKeyUsage: true,
	})
	issuing = certmodel.SyntheticIntermediate("Sectigo DV CA", usertrust, base)
	leaf = certmodel.SyntheticLeaf("cross.example", "1", issuing, base, base.AddDate(1, 0, 0))
	return
}

// cycle builds two CAs cross-signing each other (CVE-2024-0567's DoS shape)
// and a leaf issued by the first.
func cycle() (leaf, aByB, bByA *certmodel.Certificate) {
	keyA := certmodel.NewSyntheticKey("Cycle A")
	keyB := certmodel.NewSyntheticKey("Cycle B")
	nameA := certmodel.Name{CommonName: "Cycle A"}
	nameB := certmodel.Name{CommonName: "Cycle B"}
	mk := func(subject, issuer certmodel.Name, key, signer certmodel.SyntheticKey, serial string) *certmodel.Certificate {
		return certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: subject, Issuer: issuer, Serial: serial,
			NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
			Key: key, SignedBy: signer,
			IsCA: true, BasicConstraintsValid: true,
		})
	}
	aByB = mk(nameA, nameB, keyA, keyB, "a-by-b")
	bByA = mk(nameB, nameA, keyB, keyA, "b-by-a")
	leaf = certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "cycle.example"}, Issuer: nameA,
		Serial: "leaf", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("cycle leaf"), SignedBy: keyA,
		DNSNames: []string{"cycle.example"},
	})
	return
}

// ladder builds a 16-certificate list: a leaf, then 7 levels of two
// certificates each, then a root. The two certificates of a level share
// subject and key and differ in serial, and each is issued by the level
// above, so the list has 2^7 = 128 paths.
func ladder() []*certmodel.Certificate {
	root := certmodel.SyntheticRoot("Ladder Root", base)
	issuer, signer := root.Subject, certmodel.KeyOf(root)
	levels := make([]*certmodel.Certificate, 0, 14)
	for k := 7; k >= 1; k-- {
		name := certmodel.Name{CommonName: "Ladder CA " + strconv.Itoa(k)}
		key := certmodel.NewSyntheticKey(name.CommonName)
		for _, serial := range []string{"b", "a"} {
			levels = append(levels, certmodel.NewSynthetic(certmodel.SyntheticConfig{
				Subject: name, Issuer: issuer, Serial: serial,
				NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
				Key: key, SignedBy: signer,
				IsCA: true, BasicConstraintsValid: true,
			}))
		}
		issuer, signer = name, key
	}
	leaf := certmodel.NewSynthetic(certmodel.SyntheticConfig{
		Subject: certmodel.Name{CommonName: "ladder.example"}, Issuer: issuer,
		Serial: "leaf", NotBefore: base, NotAfter: base.AddDate(1, 0, 0),
		Key: certmodel.NewSyntheticKey("ladder leaf"), SignedBy: signer,
		DNSNames: []string{"ladder.example"},
	})
	list := []*certmodel.Certificate{leaf}
	for i := len(levels) - 1; i >= 0; i-- {
		list = append(list, levels[i])
	}
	return append(list, root)
}

func TestCompliantChainFigure2a(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	g := Build([]*certmodel.Certificate{leaf, i2, i1, root})

	if !SequentialOrderOK(g.List) {
		t.Error("compliant chain should satisfy the sequential rule")
	}
	if g.HasDuplicates() || len(g.Paths()) > 1 {
		t.Error("compliant chain misclassified")
	}
	if rev, _ := g.ReversedSequences(); rev {
		t.Error("compliant chain reported reversed")
	}
	paths := g.Paths()
	if len(paths) != 1 {
		t.Fatalf("path count = %d, want 1", len(paths))
	}
	want := []int{0, 1, 2, 3}
	for i, n := range paths[0] {
		if n.Index != want[i] {
			t.Errorf("path[%d] = node %d, want %d", i, n.Index, want[i])
		}
	}
	if len(g.IrrelevantNodes()) != 0 {
		t.Error("no node should be irrelevant")
	}
}

func TestIrrelevantCertificateFigure2b(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	stranger := certmodel.SyntheticRoot("Unrelated Root", base)
	g := Build([]*certmodel.Certificate{leaf, stranger, i2, i1, root})

	if SequentialOrderOK(g.List) {
		t.Error("list with interloper should fail sequential rule")
	}
	irr := g.IrrelevantNodes()
	if len(irr) != 1 || irr[0].Index != 1 {
		t.Fatalf("irrelevant nodes = %v, want just node 1", irr)
	}
	if len(g.Paths()) > 1 {
		t.Error("single path expected")
	}
}

func TestCrossSignMultiplePathsFigure2c(t *testing.T) {
	// The USERTrust shape of Figure 2c. The server inserts the cross-signed certificate at the wrong position:
	// AFTER its own issuer, producing one reversed path next to one
	// in-order path. Swapping nodes 2 and 3 would restore compliance.
	leaf, issuing, aaa, cross, usertrust := crossSigned()

	// Deployed order: 0=leaf, 1=issuing, 2=AAA root, 3=cross-signed
	// USERTrust, 4=self-signed USERTrust.
	g := Build([]*certmodel.Certificate{leaf, issuing, aaa, cross, usertrust})

	paths := g.Paths()
	if len(paths) != 2 {
		t.Fatalf("path count = %d, want 2 (cross-signing)", len(paths))
	}
	anyRev, allRev := g.ReversedSequences()
	if !anyRev {
		t.Error("cross-signed cert placed after its issuer should yield a reversed path")
	}
	if allRev {
		t.Error("the direct path (0,1,4) is in order; not all paths are reversed")
	}
}

func TestDuplicateFoldingFigure2d(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	// leaf, i2, i1, root, i1(dup), i2(dup)
	g := Build([]*certmodel.Certificate{leaf, i2, i1, root, i1, i2})

	if !g.HasDuplicates() {
		t.Fatal("duplicates not detected")
	}
	if got := g.DuplicateCount(); got != 2 {
		t.Errorf("duplicate count = %d, want 2", got)
	}
	if len(g.Nodes) != 4 {
		t.Errorf("folded node count = %d, want 4", len(g.Nodes))
	}
	dups := g.DuplicatedNodes()
	if len(dups) != 2 {
		t.Fatalf("duplicated nodes = %d, want 2", len(dups))
	}
	// i1 first occurs at index 2, duplicated at 4; i2 at 1 and 5.
	occ := map[int][]int{}
	for _, d := range dups {
		occ[d.Index] = d.Occurrences
	}
	if got := occ[2]; len(got) != 2 || got[1] != 4 {
		t.Errorf("node2 occurrences = %v", got)
	}
	if got := occ[1]; len(got) != 2 || got[1] != 5 {
		t.Errorf("node1 occurrences = %v", got)
	}
}

func TestReversedChain(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	// The classic GoGetSSL shape: leaf first, then the bundle root->i1->i2
	// pasted in top-down (reversed) order.
	g := Build([]*certmodel.Certificate{leaf, root, i1, i2})
	anyRev, allRev := g.ReversedSequences()
	if !anyRev || !allRev {
		t.Errorf("reversed = (%v,%v), want (true,true)", anyRev, allRev)
	}
	if SequentialOrderOK(g.List) {
		t.Error("reversed chain passed sequential rule")
	}
	// The path itself is still discoverable by a reordering client.
	paths := g.Paths()
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("paths = %d", len(paths))
	}
}

func TestCyclicCrossSignTerminates(t *testing.T) {
	// The walk must terminate on a cross-signing cycle, not loop.
	leaf, aByB, bByA := cycle()
	g := Build([]*certmodel.Certificate{leaf, aByB, bByA})
	paths := g.Paths()
	if len(paths) == 0 {
		t.Fatal("no paths found in cyclic graph")
	}
	for _, p := range paths {
		if len(p) > 3 {
			t.Errorf("path longer than node count: %d", len(p))
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if g := Build(nil); g.Leaf() != nil || len(g.Paths()) != 0 {
		t.Error("empty graph misbehaves")
	}
	root, _, _, _ := pki(t)
	g := Build([]*certmodel.Certificate{root})
	if !SequentialOrderOK(g.List) {
		t.Error("singleton trivially ordered")
	}
	paths := g.Paths()
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("singleton paths = %v", paths)
	}
}

func TestStringRendering(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	g := Build([]*certmodel.Certificate{leaf, i2, i1, root, i1})
	s := g.String()
	if s == "" || s == "(no edges)" {
		t.Errorf("String() = %q", s)
	}
}

// TestRelevanceIgnoresPathCap: relevance is reachability from the leaf, not
// membership in the first maxPaths enumerated paths. The ladder's 128 paths
// all pass through one of Ladder CA 1's two copies; the walk spends its 64
// below the first copy, yet the second (node 2) directly issued the leaf.
func TestRelevanceIgnoresPathCap(t *testing.T) {
	g := Build(ladder())
	if len(g.Nodes) != 16 {
		t.Fatalf("nodes = %d, want 16", len(g.Nodes))
	}
	if n := len(g.Paths()); n != maxPaths {
		t.Fatalf("paths = %d, want the cap %d", n, maxPaths)
	}
	if irr := g.IrrelevantNodes(); len(irr) != 0 {
		t.Errorf("irrelevant nodes = %s, want none", indexes(irr))
	}
	if n := relevantNodes(g); n != 16 {
		t.Errorf("relevant nodes = %d, want 16", n)
	}
}

var sinkNodes []*Node

// TestTopoAllocs guards the allocation count of the per-chain topology
// queries compliance makes: Build, then IrrelevantNodes, ReversedSequences
// and DuplicatedNodes. Build makes 4 (graph, node array, occurrences, and
// pointers with the path walk's room), Paths 1 (path list), DuplicatedNodes
// 1 when a node is duplicated; the map-based graph made 27 and 29, and the
// graph with a separate walk buffer 6 and 7. A graph rebuilt in place over
// lists no longer than its largest makes none, as a grader's graph does for
// a compliant chain.
func TestTopoAllocs(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	fig2a := []*certmodel.Certificate{leaf, i2, i1, root}
	duplicated := []*certmodel.Certificate{leaf, leaf, i2, i1, root}
	queries := func(g *Graph) {
		sinkNodes = g.IrrelevantNodes()
		g.ReversedSequences()
		sinkNodes = g.DuplicatedNodes()
	}
	var rebuilt Graph
	rebuilt.Rebuild(ladder())
	queries(&rebuilt)
	for _, tc := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"fig2a", func() { queries(Build(fig2a)) }, 5},
		{"duplicated-leaf", func() { queries(Build(duplicated)) }, 6},
		{"fig2a-rebuilt", func() { rebuilt.Rebuild(fig2a); queries(&rebuilt) }, 0},
	} {
		allocs := testing.AllocsPerRun(100, tc.run)
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestConcurrentQueries: the path walk writes the relevance marks inside
// Paths' sync.Once, so goroutines sharing one graph — difftest and the
// experiment Env grade precomputed graphs from worker pools — read one
// answer, on a built graph and on one rebuilt in place before it is shared.
// Run with -race.
func TestConcurrentQueries(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	for _, g := range []*Graph{Build(ladder()), rebuiltLadder(root, i1, i2, leaf)} {
		concurrentQueries(t, g)
	}
}

// rebuiltLadder returns a graph built over a Figure 2 list, queried, then
// rebuilt in place over the ladder.
func rebuiltLadder(root, i1, i2, leaf *certmodel.Certificate) *Graph {
	g := Build([]*certmodel.Certificate{leaf, i2, i1, root, i1})
	g.IrrelevantNodes()
	g.Rebuild(ladder())
	return g
}

func concurrentQueries(t *testing.T, g *Graph) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := len(g.IrrelevantNodes()); n != 0 {
				t.Errorf("irrelevant nodes = %d, want 0", n)
			}
			if n := len(g.Paths()); n != maxPaths {
				t.Errorf("paths = %d, want %d", n, maxPaths)
			}
		}()
	}
	wg.Wait()
}

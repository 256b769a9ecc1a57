package topo

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/population"
)

// The reference graph is the map-based construction Build replaced: a
// fingerprint map folds duplicates, every node and edge slice is allocated
// on its own, and paths are enumerated by a recursive closure with an
// on-path map. Its relevance is the union of the enumerated paths, so it is
// cut by maxPaths. TestGraphMatchesReference and FuzzTopoBuild compare Build,
// and a graph rebuilt in place, with it.

type refNode struct {
	Index       int
	Cert        *certmodel.Certificate
	Occurrences []int
	Issuers     []*refNode
	Children    []*refNode
}

type refGraph struct {
	List  []*certmodel.Certificate
	Nodes []*refNode
	byFP  map[certmodel.FP]*refNode
	paths [][]*refNode
}

func refBuild(list []*certmodel.Certificate) *refGraph {
	g := &refGraph{List: list, byFP: make(map[certmodel.FP]*refNode, len(list))}
	for i, cert := range list {
		fp := cert.Fingerprint()
		if node, ok := g.byFP[fp]; ok {
			node.Occurrences = append(node.Occurrences, i)
			continue
		}
		node := &refNode{Index: i, Cert: cert, Occurrences: []int{i}}
		g.byFP[fp] = node
		g.Nodes = append(g.Nodes, node)
	}
	for _, child := range g.Nodes {
		for _, parent := range g.Nodes {
			if parent == child {
				continue
			}
			if certmodel.Issued(parent.Cert, child.Cert) {
				child.Issuers = append(child.Issuers, parent)
				parent.Children = append(parent.Children, child)
			}
		}
	}
	g.paths = g.computePaths()
	return g
}

func (g *refGraph) computePaths() [][]*refNode {
	if len(g.Nodes) == 0 {
		return nil
	}
	leaf := g.Nodes[0]
	var paths [][]*refNode
	onPath := make(map[*refNode]bool)
	var walk func(node *refNode, acc []*refNode)
	walk = func(node *refNode, acc []*refNode) {
		if len(paths) >= maxPaths {
			return
		}
		acc = append(acc, node)
		onPath[node] = true
		defer delete(onPath, node)

		if node.Cert.SelfSigned() {
			paths = append(paths, append([]*refNode(nil), acc...))
			return
		}
		extended := false
		for _, issuer := range node.Issuers {
			if issuer == node || onPath[issuer] {
				continue
			}
			extended = true
			walk(issuer, acc)
		}
		if !extended {
			paths = append(paths, append([]*refNode(nil), acc...))
		}
	}
	walk(leaf, nil)
	return paths
}

func (g *refGraph) irrelevant() []*refNode {
	relevant := make(map[*refNode]bool)
	for _, path := range g.paths {
		for _, n := range path {
			relevant[n] = true
		}
	}
	var out []*refNode
	for _, n := range g.Nodes {
		if !relevant[n] {
			out = append(out, n)
		}
	}
	return out
}

func (g *refGraph) reversedSequences() (any, all bool) {
	if len(g.paths) == 0 {
		return false, false
	}
	all = true
	for _, p := range g.paths {
		rev := false
		for i := 0; i+1 < len(p); i++ {
			if p[i+1].Index < p[i].Index {
				rev = true
				break
			}
		}
		if rev {
			any = true
		} else {
			all = false
		}
	}
	return any, all
}

func (g *refGraph) duplicateCount() int {
	total := 0
	for _, n := range g.Nodes {
		total += len(n.Occurrences) - 1
	}
	return total
}

func (g *refGraph) String() string {
	var edges []string
	for _, n := range g.Nodes {
		for _, issuer := range n.Issuers {
			edges = append(edges, fmt.Sprintf("%d<-%d", n.Index, issuer.Index))
		}
	}
	var dups []string
	for _, n := range g.Nodes {
		if len(n.Occurrences) > 1 {
			dups = append(dups, fmt.Sprintf("%d:%v", n.Index, n.Occurrences))
		}
	}
	s := strings.Join(edges, " ")
	if len(dups) > 0 {
		s += " | dup " + strings.Join(dups, " ")
	}
	if s == "" {
		s = "(no edges)"
	}
	return s
}

// diffReference returns the first difference between Build's graph and the
// reference graph of the same list, or "" when they agree.
func diffReference(list []*certmodel.Certificate) string {
	return diffGraph(Build(list), list)
}

// diffGraph returns the first difference between g, built or rebuilt from
// list, and the reference graph of list, or "" when they agree. Irrelevant
// nodes must agree exactly when the reference enumerated fewer than maxPaths
// paths; past the cap g's relevance is reachability, so its irrelevant set
// may only be a subset of the reference's.
func diffGraph(g *Graph, list []*certmodel.Certificate) string {
	r := refBuild(list)
	if len(g.Nodes) != len(r.Nodes) {
		return fmt.Sprintf("nodes: %d, reference %d", len(g.Nodes), len(r.Nodes))
	}
	for i, n := range g.Nodes {
		rn := r.Nodes[i]
		if n.Index != rn.Index || n.Cert != rn.Cert {
			return fmt.Sprintf("node %d: index %d, reference %d", i, n.Index, rn.Index)
		}
		if cap(n.Occurrences) != len(n.Occurrences) || cap(n.Issuers) != len(n.Issuers) || cap(n.Children) != len(n.Children) {
			return fmt.Sprintf("node %d: a slice is not capped", n.Index)
		}
		if fmt.Sprint(n.Occurrences) != fmt.Sprint(rn.Occurrences) {
			return fmt.Sprintf("node %d occurrences: %v, reference %v", n.Index, n.Occurrences, rn.Occurrences)
		}
		if got, want := indexes(n.Issuers), refIndexes(rn.Issuers); got != want {
			return fmt.Sprintf("node %d issuers: %s, reference %s", n.Index, got, want)
		}
		if got, want := indexes(n.Children), refIndexes(rn.Children); got != want {
			return fmt.Sprintf("node %d children: %s, reference %s", n.Index, got, want)
		}
	}
	paths := g.Paths()
	if len(paths) != len(r.paths) {
		return fmt.Sprintf("paths: %d, reference %d", len(paths), len(r.paths))
	}
	for i, p := range paths {
		if got, want := indexes(p), refIndexes(r.paths[i]); got != want {
			return fmt.Sprintf("path %d: %s, reference %s", i, got, want)
		}
		if cap(p) != len(p) {
			return fmt.Sprintf("path %d is not capped", i)
		}
	}
	if got, want := g.String(), r.String(); got != want {
		return fmt.Sprintf("String: %q, reference %q", got, want)
	}
	anyRev, allRev := g.ReversedSequences()
	refAny, refAll := r.reversedSequences()
	if anyRev != refAny || allRev != refAll {
		return fmt.Sprintf("reversed: (%v,%v), reference (%v,%v)", anyRev, allRev, refAny, refAll)
	}
	if got, want := g.DuplicateCount(), r.duplicateCount(); got != want {
		return fmt.Sprintf("duplicates: %d, reference %d", got, want)
	}
	irr, refIrr := indexes(g.IrrelevantNodes()), refIndexes(r.irrelevant())
	if len(r.paths) < maxPaths {
		if irr != refIrr {
			return fmt.Sprintf("irrelevant: %s, reference %s", irr, refIrr)
		}
		return ""
	}
	inRef := map[int]bool{}
	for _, n := range r.irrelevant() {
		inRef[n.Index] = true
	}
	for _, n := range g.IrrelevantNodes() {
		if !inRef[n.Index] {
			return fmt.Sprintf("irrelevant: %s not within reference %s", irr, refIrr)
		}
	}
	return ""
}

func indexes(nodes []*Node) string {
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%d ", n.Index)
	}
	return b.String()
}

func refIndexes(nodes []*refNode) string {
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%d ", n.Index)
	}
	return b.String()
}

// longLists returns the three 1,024-certificate shapes that bound Build's
// quadratic fold and edge loop: a compliant chain 1,024 deep; a leaf, 1,024
// intermediates unrelated to it, then its issuer and root; and the same with
// 1,024 intermediates whose encodings all have one length and differ only in
// their trailing public key.
func longLists() map[string][]*certmodel.Certificate {
	const n = 1024
	root := certmodel.SyntheticRoot("Long Root", base)
	chain := []*certmodel.Certificate{root}
	for i := 1; i < n-1; i++ {
		chain = append(chain, certmodel.SyntheticIntermediate(fmt.Sprintf("Long CA %d", i), chain[i-1], base))
	}
	deep := []*certmodel.Certificate{certmodel.SyntheticLeaf("deep.example", "1", chain[len(chain)-1], base, base.AddDate(1, 0, 0))}
	for i := len(chain) - 1; i >= 0; i-- {
		deep = append(deep, chain[i])
	}

	issuing := certmodel.SyntheticIntermediate("Long Issuing CA", root, base)
	leaf := certmodel.SyntheticLeaf("long.example", "1", issuing, base, base.AddDate(1, 0, 0))
	stranger := certmodel.SyntheticRoot("Long Stranger", base)
	distinct := []*certmodel.Certificate{leaf}
	sameLength := []*certmodel.Certificate{leaf}
	for i := 0; i < n; i++ {
		distinct = append(distinct, certmodel.SyntheticIntermediate(fmt.Sprintf("Long Stranger CA %d", i), stranger, base))
		sameLength = append(sameLength, certmodel.NewSynthetic(certmodel.SyntheticConfig{
			Subject: certmodel.Name{CommonName: "Long Same-Length CA"}, Issuer: stranger.Subject,
			Serial: "same", NotBefore: base, NotAfter: base.AddDate(5, 0, 0),
			Key: certmodel.NewSyntheticKey(fmt.Sprintf("same-length %d", i)), SignedBy: certmodel.KeyOf(stranger),
			OmitSKID: true, OmitAKID: true, IsCA: true, BasicConstraintsValid: true,
		}))
	}
	distinct = append(distinct, issuing, root)
	sameLength = append(sameLength, issuing, root)
	return map[string][]*certmodel.Certificate{"deep1024": deep, "distinct1024": distinct, "sameLength1024": sameLength}
}

// fuzzPool is what FuzzTopoBuild draws lists from: the pki chain, a stranger
// root, the Figure 2c cross-signed pair with its issuing CA and leaf, the
// mutually cross-signed cycle with its leaf, the 128-path ladder, and eight
// more leaves of the chain — 37 distinct certificates, so a list can pass
// the stack buffers' 32 distinct nodes as well as their 32 entries and 32
// edges.
func fuzzPool(t testing.TB) []*certmodel.Certificate {
	t.Helper()
	root, i1, i2, leaf := pki(t)
	crossLeaf, issuing, aaa, cross, usertrust := crossSigned()
	cycleLeaf, aByB, bByA := cycle()
	pool := []*certmodel.Certificate{leaf, i2, i1, root, certmodel.SyntheticRoot("Unrelated Root", base),
		crossLeaf, issuing, aaa, cross, usertrust, cycleLeaf, aByB, bByA}
	pool = append(pool, ladder()...)
	for i := 0; i < 8; i++ {
		pool = append(pool, certmodel.SyntheticLeaf(fmt.Sprintf("sibling-%d.example", i), "1", i2, base, base.AddDate(1, 0, 0)))
	}
	return pool
}

// TestGraphMatchesReference: Build's graph answers every query as the
// map-based reference does, over the Figure 2 topologies, two generated
// populations and the long adversarial lists.
func TestGraphMatchesReference(t *testing.T) {
	root, i1, i2, leaf := pki(t)
	crossLeaf, issuing, aaa, cross, usertrust := crossSigned()
	cycleLeaf, aByB, bByA := cycle()
	lists := map[string][]*certmodel.Certificate{
		"empty":    nil,
		"fig2a":    {leaf, i2, i1, root},
		"fig2b":    {leaf, certmodel.SyntheticRoot("Unrelated Root", base), i2, i1, root},
		"fig2c":    {crossLeaf, issuing, aaa, cross, usertrust},
		"fig2d":    {leaf, i2, i1, root, i1, i2},
		"reversed": {leaf, root, i1, i2},
		"cycle":    {cycleLeaf, aByB, bByA},
		"ladder":   ladder(),
	}
	for name, list := range longLists() {
		lists[name] = list
	}
	for name, list := range lists {
		if d := diffReference(list); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	// One graph rebuilt in place: a long list, a short one whose stray root
	// sits where the long one had a relevant node, one with duplicates, one
	// past maxPaths, then back down the same way. Each rebuild must answer as
	// a fresh build does, with no relevance mark, path memo or Occurrences
	// run left behind by the list before it.
	var g Graph
	order := []string{"deep1024", "fig2b", "fig2d", "ladder", "fig2a", "fig2d", "fig2b", "empty", "fig2c", "distinct1024", "cycle"}
	for _, name := range order {
		g.Rebuild(lists[name])
		if d := diffGraph(&g, lists[name]); d != "" {
			t.Errorf("rebuilt as %s: %s", name, d)
		}
	}
	for _, cfg := range []population.Config{
		{Size: 5000, Seed: 1},
		{Size: 5000, Seed: 1, ChainReuse: 0.9, ChainPool: 64},
	} {
		for _, d := range population.Generate(cfg).Domains {
			if diff := diffReference(d.List); diff != "" {
				t.Fatalf("reuse %.1f, %s: %s", cfg.ChainReuse, d.Name, diff)
			}
		}
	}
}

// FuzzTopoBuild compares Build with the reference on lists of up to 40
// entries drawn from fuzzPool, one input byte per entry, and a graph rebuilt
// in place over that list, then its first half, then its reverse.
func FuzzTopoBuild(f *testing.F) {
	pool := fuzzPool(f)
	all := make([]byte, len(pool))
	for i := range all {
		all[i] = byte(i)
	}
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 6, 7, 8, 9, 0, 4})
	f.Add([]byte{10, 11, 12, 11})
	f.Add(all[13:29])           // the ladder
	f.Add(append(all, 0, 1, 2)) // every pool entry, then duplicates
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 40 {
			data = data[:40]
		}
		list := make([]*certmodel.Certificate, len(data))
		for i, b := range data {
			list[i] = pool[int(b)%len(pool)]
		}
		if d := diffReference(list); d != "" {
			t.Fatal(d)
		}
		reversed := slices.Clone(list)
		slices.Reverse(reversed)
		var g Graph
		for i, l := range [][]*certmodel.Certificate{list, list[:len(list)/2], reversed} {
			g.Rebuild(l)
			if d := diffGraph(&g, l); d != "" {
				t.Fatalf("rebuild %d: %s", i, d)
			}
		}
	})
}

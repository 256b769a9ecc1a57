// Package topo builds the issuance topology graph the paper uses to classify
// out-of-order certificate chains (§3.1, Figure 2). The server's certificate
// list is laid out positionally; duplicates are folded onto their first
// occurrence (the Cp[i] relabeling); edges follow the issuance relation; and
// classification queries — duplicates, irrelevant certificates, multiple
// paths, reversed sequences — are answered over the folded graph.
package topo

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"chainchaos/internal/certmodel"
)

// maxPaths bounds path enumeration. Real-world cross-signing produces at most
// a handful of paths (the paper observed up to three); the bound only guards
// against adversarial inputs.
const maxPaths = 64

// stackNodes is how many list entries, distinct certificates and issuance
// edges Build holds in stack buffers before it spills to the heap. A
// generated population's longest list has 15 entries.
const stackNodes = 32

// Node is one distinct certificate in the list.
//
// A graph's Occurrences, Issuers and Children slices are runs of a few
// shared backing arrays. Each run is capped (cap == len), so an append by a
// caller copies instead of writing into a neighbour's run.
type Node struct {
	// Index is the position of the certificate's first occurrence in the
	// original list; it is the node's label in Figure 2 terms.
	Index int
	Cert  *certmodel.Certificate
	// Occurrences lists every position where a bit-identical copy appears.
	Occurrences []int
	// Issuers are the distinct in-list candidates that issued this node.
	Issuers []*Node
	// Children are the inverse edges.
	Children []*Node

	onPath   bool // on the path the walk is extending
	relevant bool // reachable from the leaf; set by the path walk
}

// Graph is the folded issuance topology of a certificate list. Its path
// enumeration, and the relevance marks the walk leaves, are computed once
// per build, so the compliance analyzers and difftest grading that each
// interrogate the same graph several times per chain pay for the walk once.
//
// A graph is built by Build, or rebuilt in place by Rebuild over its own
// node, occurrence and pointer arrays (the last holding the path walk's
// room) and its path list, so a graph rebuilt for every chain (each
// core.Grader keeps one) allocates only when a list outgrows the largest it
// has held. Between builds a graph is immutable and
// its queries are safe for concurrent use; a rebuild invalidates every
// node, path and slice the previous build returned, so a rebuilt graph
// belongs to one owner until its next Rebuild. Use Graphs by pointer — the
// memoization state makes them non-copyable.
type Graph struct {
	// List is the original server-provided order, including duplicates.
	List []*certmodel.Certificate
	// Nodes holds the distinct certificates in first-occurrence order.
	Nodes []*Node

	// Memoized query results (goroutine-safe: difftest and the experiment
	// Env grade precomputed graphs from worker pools).
	pathsOnce sync.Once
	paths     [][]*Node

	// The buffers a rebuild reuses: the node array, every Occurrences run,
	// and the pointer array of Nodes, every Issuers and Children run and
	// the path walk (see Rebuild). paths keeps its capacity the same way.
	nodeBuf []Node
	occBuf  []int
	ptrBuf  []*Node
}

// edge is one issuance link, by node position.
type edge struct{ child, parent int }

// Build folds duplicates and wires issuance edges into a new graph. It
// accepts an empty list, producing an empty graph.
func Build(list []*certmodel.Certificate) *Graph {
	g := new(Graph)
	g.Rebuild(list)
	return g
}

// Rebuild makes g the graph of list in place, reusing the buffers of its
// earlier builds; see Graph for what a rebuild invalidates.
//
// The nodes live in one array. Duplicates are folded by a linear scan of the
// nodes so far, by the SHA-256 fingerprint of Raw a map would key on: each
// step compares the first eight bytes, and only a match is confirmed on the
// whole digest. So a crafted list cannot make a step slow, as a byte compare
// of two long encodings that differ at the end would be. The scan is
// quadratic in the distinct count, as the edge loop below is.
func (g *Graph) Rebuild(list []*certmodel.Certificate) {
	g.List, g.Nodes = list, nil
	g.pathsOnce, g.paths = sync.Once{}, g.paths[:0]
	if len(list) == 0 {
		return
	}

	// keys[j] is the first eight bytes of node j's fingerprint; owner[i] is
	// the node of list[i].
	var keyBuf [stackNodes]uint64
	var ownerBuf [stackNodes]int
	keys, owner := keyBuf[:0], ownerBuf[:0]
	nodes := reuse(g.nodeBuf, len(list))
	for i, cert := range list {
		fp := cert.Fingerprint()
		key := binary.LittleEndian.Uint64(fp[:8])
		j := 0
		for j < len(keys) && (keys[j] != key || nodes[j].Cert.Fingerprint() != fp) {
			j++
		}
		if j == len(keys) {
			keys = append(keys, key)
			nodes = append(nodes, Node{Index: i, Cert: cert})
		}
		owner = append(owner, j)
	}

	// Occurrences: count each node's copies into occ, carve each node its
	// run of occ, then fill the runs in list order.
	occ := reuse(g.occBuf, len(list))[:len(list)]
	clear(occ)
	for _, j := range owner {
		occ[j]++
	}
	start := 0
	for j := range nodes {
		c := occ[j]
		nodes[j].Occurrences = occ[start : start : start+c]
		start += c
	}
	for i, j := range owner {
		nodes[j].Occurrences = append(nodes[j].Occurrences, i)
	}

	var edgeBuf [stackNodes]edge
	edges := edgeBuf[:0]
	for c := range nodes {
		child := nodes[c].Cert
		for p := range nodes {
			if p != c && certmodel.Issued(nodes[p].Cert, child) {
				edges = append(edges, edge{c, p})
			}
		}
	}

	// One pointer array holds Nodes, then every Issuers run, then every
	// Children run, then the path walk's room: 2n pointers (see
	// computePaths).
	n, e := len(nodes), len(edges)
	ptrs := reuse(g.ptrBuf, 3*n+2*e)[:3*n+2*e]
	g.Nodes = ptrs[:n:n]
	for j := range nodes {
		g.Nodes[j] = &nodes[j]
	}
	// Edges are child-major in parent order, so a child's issuers are one
	// run of them.
	issuers := ptrs[n : n+e]
	for k := 0; k < e; {
		c, first := edges[k].child, k
		for ; k < e && edges[k].child == c; k++ {
			issuers[k] = &nodes[edges[k].parent]
		}
		nodes[c].Issuers = issuers[first:k:k]
	}
	// A parent's children arrive in child order; owner, no longer needed,
	// counts them per parent.
	children := ptrs[n+e : n+2*e]
	count := owner[:n]
	clear(count)
	for _, ed := range edges {
		count[ed.parent]++
	}
	start = 0
	for j, c := range count {
		if c > 0 {
			nodes[j].Children = children[start : start : start+c]
			start += c
		}
	}
	for _, ed := range edges {
		p := &nodes[ed.parent]
		p.Children = append(p.Children, &nodes[ed.child])
	}
	g.nodeBuf, g.occBuf, g.ptrBuf = nodes, occ, ptrs
}

// reuse returns buf emptied when it holds n elements, or a new slice with
// room for n.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// Leaf returns the node of the first certificate in the list — the position
// TLS requires the end-entity certificate to occupy — or nil for an empty
// graph.
func (g *Graph) Leaf() *Node {
	if len(g.Nodes) == 0 {
		return nil
	}
	return g.Nodes[0]
}

// HasDuplicates reports whether any certificate appears more than once
// bit-for-bit.
func (g *Graph) HasDuplicates() bool {
	for _, n := range g.Nodes {
		if len(n.Occurrences) > 1 {
			return true
		}
	}
	return false
}

// DuplicateCount returns the number of surplus copies across the whole list
// (a certificate appearing three times contributes two).
func (g *Graph) DuplicateCount() int {
	total := 0
	for _, n := range g.Nodes {
		total += len(n.Occurrences) - 1
	}
	return total
}

// DuplicatedNodes returns the nodes with more than one occurrence.
func (g *Graph) DuplicatedNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if len(n.Occurrences) > 1 {
			out = append(out, n)
		}
	}
	return out
}

// Paths enumerates the certification paths that terminate at the leaf:
// sequences [leaf, issuer, issuer-of-issuer, ...] following issuance edges
// upward until a node has no in-list issuer or only issuers already on the
// path (cycles from mutually cross-signed certificates are cut, the
// CVE-2024-0567 shape). At most maxPaths paths are returned.
//
// The result is computed once and shared by every later call; callers must
// not mutate the returned slices.
func (g *Graph) Paths() [][]*Node {
	g.pathsOnce.Do(func() { g.paths = g.computePaths() })
	return g.paths
}

func (g *Graph) computePaths() [][]*Node {
	leaf := g.Leaf()
	if leaf == nil {
		return nil
	}
	// The walk's room is the last 2n pointers of the pointer array. A path
	// holds each node at most once, so acc never outgrows the first n;
	// store starts in the second n and moves to the heap only for lists
	// whose paths hold more than n nodes in all.
	n := len(g.Nodes)
	room := g.ptrBuf[len(g.ptrBuf)-2*n:]
	w := walker{acc: room[:0:n], store: room[n:n], paths: g.paths}
	w.walk(leaf)
	if len(w.paths) >= maxPaths {
		// An uncapped walk visits exactly the nodes reachable from the
		// leaf, so its marks are the relevance; the cap may have stopped it
		// short. Marking separately only here keeps the SelfSigned checks,
		// and so certmodel's signature counters, those of a plain walk.
		g.markReachable(w.acc[:0])
	}
	return w.paths
}

// markReachable sets the relevance marks to reachability from the leaf
// along Issuers. A self-signed node is reached but not extended, as a path
// ends there. stack is scratch with room for every node.
func (g *Graph) markReachable(stack []*Node) {
	for _, n := range g.Nodes {
		n.relevant = false
	}
	leaf := g.Nodes[0]
	leaf.relevant = true
	stack = append(stack, leaf)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Cert.SelfSigned() {
			continue
		}
		for _, issuer := range n.Issuers {
			if !issuer.relevant {
				issuer.relevant = true
				stack = append(stack, issuer)
			}
		}
	}
}

// walker is the depth-first path enumeration. acc is the path being
// extended; every finished path is a capped run of store.
type walker struct {
	acc   []*Node
	store []*Node
	paths [][]*Node
}

func (w *walker) walk(node *Node) {
	if len(w.paths) >= maxPaths {
		return
	}
	w.acc = append(w.acc, node)
	node.onPath, node.relevant = true, true

	if node.Cert.SelfSigned() {
		// A self-signed certificate terminates the path even if some
		// other in-list certificate could nominally extend it (e.g. a
		// cross-signed sibling sharing the same key).
		w.emit()
	} else {
		extended := false
		for _, issuer := range node.Issuers {
			if issuer.onPath {
				continue // cross-signing cycle
			}
			extended = true
			w.walk(issuer)
		}
		if !extended {
			w.emit()
		}
	}
	node.onPath = false
	w.acc = w.acc[:len(w.acc)-1]
}

// emit records the current path.
func (w *walker) emit() {
	start := len(w.store)
	w.store = append(w.store, w.acc...)
	w.paths = append(w.paths, w.store[start:len(w.store):len(w.store)])
}

// IrrelevantNodes returns the distinct certificates with no direct or
// indirect issuance relation to the leaf. Duplicates are already folded, so
// surplus copies do not count (matching the paper: "duplicate certificates
// are not counted").
func (g *Graph) IrrelevantNodes() []*Node {
	g.Paths() // the walk sets the relevance marks
	var out []*Node
	for _, n := range g.Nodes {
		if !n.relevant {
			out = append(out, n)
		}
	}
	return out
}

// pathReversed reports whether any issuance step in the path places the
// issuer at an earlier list position than its subject. In a compliant chain
// every issuer follows its subject.
func pathReversed(path []*Node) bool {
	for i := 0; i+1 < len(path); i++ {
		subject, issuer := path[i], path[i+1]
		if issuer.Index < subject.Index {
			return true
		}
	}
	return false
}

// ReversedSequences reports whether at least one path is reversed and
// whether all paths are reversed (the paper reports both counts: 8,566
// chains with ≥1 reversed path, 8,370 with all paths reversed).
func (g *Graph) ReversedSequences() (any, all bool) {
	paths := g.Paths()
	if len(paths) == 0 {
		return false, false
	}
	all = true
	for _, p := range paths {
		if pathReversed(p) {
			any = true
		} else {
			all = false
		}
	}
	return any, all
}

// SequentialOrderOK applies TLS 1.2's literal rule to the raw list: each
// certificate must directly certify the one preceding it. Single-certificate
// lists are trivially ordered.
func SequentialOrderOK(list []*certmodel.Certificate) bool {
	for i := 0; i+1 < len(list); i++ {
		if !certmodel.Issued(list[i+1], list[i]) {
			return false
		}
	}
	return true
}

// String renders the folded topology compactly, e.g.
// "0<-1 1<-2 2<-3 | dup 4:[4 6]" — used by the Figure 2 gallery and debug
// output.
func (g *Graph) String() string {
	var edges []string
	for _, n := range g.Nodes {
		for _, issuer := range n.Issuers {
			edges = append(edges, fmt.Sprintf("%d<-%d", n.Index, issuer.Index))
		}
	}
	var dups []string
	for _, n := range g.DuplicatedNodes() {
		dups = append(dups, fmt.Sprintf("%d:%v", n.Index, n.Occurrences))
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

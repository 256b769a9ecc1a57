package clients

import (
	"errors"
	"fmt"
	"sync"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/pathbuild"
)

// ProbeMaxLength is the deepest total chain length the path-length probe
// tries. The paper reports clients without an observable limit as ">52"; the
// probe therefore goes a little past that.
const ProbeMaxLength = 56

// CapabilityReport is one client's row of Table 9.
type CapabilityReport struct {
	Profile Profile

	OrderReorganization   bool
	RedundancyElimination bool
	AIACompletion         bool

	Validity         pathbuild.ValidityPolicy
	KID              pathbuild.KIDPolicy
	KeyUsagePref     bool
	BasicConstraints bool

	// MaxChainLength is the largest total chain length that validated; 0
	// means no limit was hit up to ProbeMaxLength (rendered ">52").
	MaxChainLength int
	// InputListLimited: the limit applies to the presented list rather
	// than the constructed path (GnuTLS's semantics, finding I-2).
	InputListLimited bool

	SelfSignedLeafAllowed bool
}

// MaxChainString renders the path-length cell the way Table 9 does.
func (r CapabilityReport) MaxChainString() string {
	if r.MaxChainLength == 0 {
		return ">52"
	}
	return fmt.Sprintf("=%d", r.MaxChainLength)
}

// Runner executes the Table 2 capability tests against client models. Deep
// probe chains are generated once and shared across clients.
type Runner struct {
	Set *ScenarioSet

	mu     sync.Mutex
	deep   map[int]*Scenario // keyed by total chain length
	padded *Scenario         // length-10 chain with irrelevant padding
}

// NewRunner creates a runner over a fresh scenario set.
func NewRunner() (*Runner, error) {
	set, err := NewScenarioSet()
	if err != nil {
		return nil, err
	}
	return &Runner{Set: set, deep: make(map[int]*Scenario)}, nil
}

// builder instantiates the profile's path builder for a scenario. No run
// gets an intermediate cache: the capability tests measure intrinsic
// ability, not cache warmth.
func (r *Runner) builder(p Profile, sc *Scenario) *pathbuild.Builder {
	return &pathbuild.Builder{
		Policy:  p.Policy,
		Roots:   sc.Roots,
		Fetcher: sc.Fetcher,
		Now:     certgen.Reference,
	}
}

// Run derives the full capability report for one client model.
func (r *Runner) Run(p Profile) (CapabilityReport, error) {
	rep := CapabilityReport{Profile: p}

	rep.OrderReorganization = r.builder(p, r.Set.OrderReorganization).
		Build(r.Set.OrderReorganization.List, r.Set.OrderReorganization.Domain).OK()
	rep.RedundancyElimination = r.builder(p, r.Set.RedundancyElimination).
		Build(r.Set.RedundancyElimination.List, r.Set.RedundancyElimination.Domain).OK()
	rep.AIACompletion = r.builder(p, r.Set.AIACompletion).
		Build(r.Set.AIACompletion.List, r.Set.AIACompletion.Domain).OK()

	rep.Validity = r.classifyValidity(p)
	rep.KID = r.classifyKID(p)
	rep.KeyUsagePref = r.classifyKeyUsage(p)
	rep.BasicConstraints = r.classifyBasicConstraints(p)

	maxLen, inputLimited, err := r.probePathLength(p)
	if err != nil {
		return rep, err
	}
	rep.MaxChainLength = maxLen
	rep.InputListLimited = inputLimited

	ssOutcome := r.builder(p, r.Set.SelfSigned).Build(r.Set.SelfSigned.List, r.Set.SelfSigned.Domain)
	rep.SelfSignedLeafAllowed = !errors.Is(ssOutcome.Err, pathbuild.ErrSelfSignedLeaf)

	return rep, nil
}

// RunAll reports on every supplied profile (or All() when none given).
func (r *Runner) RunAll(profiles ...Profile) ([]CapabilityReport, error) {
	if len(profiles) == 0 {
		profiles = All()
	}
	out := make([]CapabilityReport, 0, len(profiles))
	for _, p := range profiles {
		rep, err := r.Run(p)
		if err != nil {
			return nil, fmt.Errorf("clients: capability run for %s: %w", p.Name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// chosenIssuer returns the certificate the client put directly above the
// leaf, or nil when construction stopped at the leaf.
func chosenIssuer(path []*certmodel.Certificate) *certmodel.Certificate {
	if len(path) < 2 {
		return nil
	}
	return path[1]
}

func (r *Runner) classifyValidity(p Profile) pathbuild.ValidityPolicy {
	sc := r.Set.Validity
	out := r.builder(p, sc).Build(sc.List, sc.Domain)
	switch sc.LabelOf(chosenIssuer(out.Path)) {
	case "I2":
		return pathbuild.ValidityMostRecent
	case "I":
		return pathbuild.ValidityFirstValid
	default: // "I1" (the invalid first candidate), "I3", or a dead end
		return pathbuild.ValidityNone
	}
}

func (r *Runner) classifyKID(p Profile) pathbuild.KIDPolicy {
	sc := r.Set.KID
	out := r.builder(p, sc).Build(sc.List, sc.Domain)
	switch sc.LabelOf(chosenIssuer(out.Path)) {
	case "I":
		return pathbuild.KIDMatchFirst
	case "I2":
		return pathbuild.KIDMatchOrAbsentFirst
	default:
		return pathbuild.KIDNone
	}
}

func (r *Runner) classifyKeyUsage(p Profile) bool {
	sc := r.Set.KeyUsage
	out := r.builder(p, sc).Build(sc.List, sc.Domain)
	// Correct/missing KeyUsage wins over incorrect when the client did NOT
	// pick the bad-KeyUsage candidate presented first.
	return sc.LabelOf(chosenIssuer(out.Path)) != "I1" && chosenIssuer(out.Path) != nil
}

func (r *Runner) classifyBasicConstraints(p Profile) bool {
	sc := r.Set.BasicConstraints
	out := r.builder(p, sc).Build(sc.List, sc.Domain)
	// The observable is which same-subject upper CA ended up in the final
	// path — the paper's method cannot distinguish a priority rule from
	// backtracking recovery, and neither do we.
	for _, c := range out.Path {
		if sc.LabelOf(c) == "I2" {
			return true
		}
		if sc.LabelOf(c) == "I3" {
			return false
		}
	}
	return false
}

// deepScenario returns (building on demand) the probe chain with the given
// total length.
func (r *Runner) deepScenario(total int) (*Scenario, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sc, ok := r.deep[total]; ok {
		return sc, nil
	}
	sc, err := r.Set.DeepChain(total-2, 0)
	if err != nil {
		return nil, err
	}
	r.deep[total] = sc
	return sc, nil
}

// probePathLength finds the largest total chain length the client validates
// (0 when even ProbeMaxLength passes) and whether the limit binds the input
// list rather than the constructed path.
func (r *Runner) probePathLength(p Profile) (maxLen int, inputLimited bool, err error) {
	passes := func(total int) (bool, error) {
		sc, err := r.deepScenario(total)
		if err != nil {
			return false, err
		}
		return r.builder(p, sc).Build(sc.List, sc.Domain).OK(), nil
	}

	ok, err := passes(ProbeMaxLength)
	if err != nil {
		return 0, false, err
	}
	if ok {
		return 0, false, nil
	}
	// Binary search for the largest passing total in [3, ProbeMaxLength).
	lo, hi := 3, ProbeMaxLength // lo assumed passing, hi failing
	if ok, err := passes(lo); err != nil {
		return 0, false, err
	} else if !ok {
		return lo - 1, false, nil
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		ok, err := passes(mid)
		if err != nil {
			return 0, false, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	maxLen = lo

	// Semantics check: a chain well inside the limit, padded with
	// irrelevant certificates beyond it. Input-list-limited clients fail.
	r.mu.Lock()
	if r.padded == nil {
		r.padded, err = r.Set.DeepChain(4, maxPaddedListLen-6)
	}
	padded := r.padded
	r.mu.Unlock()
	if err != nil {
		return maxLen, false, err
	}
	if maxLen >= 6 { // only meaningful when the unpadded 6-cert chain fits
		out := r.builder(p, padded).Build(padded.List, padded.Domain)
		inputLimited = !out.OK()
	}
	return maxLen, inputLimited, nil
}

// maxPaddedListLen is the padded probe's list length: a 6-cert chain padded
// to 24 certificates, beyond every observed input-list limit.
const maxPaddedListLen = 24

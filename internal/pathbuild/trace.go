package pathbuild

import (
	"fmt"
	"strings"
	"sync"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/validate"
)

// Trace records the builder's decisions — which candidates were considered
// at each step, how they ranked, which was chosen, and why paths were
// accepted or abandoned. It exists for the same reason the paper had to
// reverse-engineer client behaviour from source code and probes: chain
// construction is invisible in the final verdict. Attach one to a Builder to
// make it visible.
type Trace struct {
	mu     sync.Mutex
	Events []TraceEvent
}

// TraceEventKind classifies a trace event.
type TraceEventKind int

const (
	// TraceStep: candidates were collected for the path's current tip.
	TraceStep TraceEventKind = iota
	// TraceAttempt: a complete candidate path was validated.
	TraceAttempt
	// TraceDeadEnd: no candidate issuer existed anywhere.
	TraceDeadEnd
)

// TraceCandidate describes one ranked candidate.
type TraceCandidate struct {
	Subject  certmodel.Name
	Serial   string
	Source   string // "list", "roots", "cache", "aia"
	Position int    // list position, -1 otherwise
	Chosen   bool   // first in rank order
}

// TraceEvent is one recorded decision.
type TraceEvent struct {
	Kind TraceEventKind
	// Depth is the current path length when the event fired.
	Depth int
	// Tip is the certificate whose issuer was being sought (TraceStep /
	// TraceDeadEnd) or the path's terminal certificate (TraceAttempt).
	Tip certmodel.Name
	// Candidates is the ranked shortlist (TraceStep only).
	Candidates []TraceCandidate
	// Accepted reports validation success (TraceAttempt only).
	Accepted bool
	// Detail carries the failure reason for rejected attempts.
	Detail string
}

// String renders the event as one log line.
func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceStep:
		parts := make([]string, 0, len(e.Candidates))
		for _, c := range e.Candidates {
			mark := ""
			if c.Chosen {
				mark = "*"
			}
			parts = append(parts, fmt.Sprintf("%s%s(%s)", mark, c.Subject.CommonName, c.Source))
		}
		return fmt.Sprintf("step depth=%d tip=%q candidates=[%s]", e.Depth, e.Tip.CommonName, strings.Join(parts, " "))
	case TraceAttempt:
		verdict := "rejected"
		if e.Accepted {
			verdict = "accepted"
		}
		s := fmt.Sprintf("attempt depth=%d terminal=%q %s", e.Depth, e.Tip.CommonName, verdict)
		if e.Detail != "" {
			s += ": " + e.Detail
		}
		return s
	case TraceDeadEnd:
		return fmt.Sprintf("dead-end depth=%d tip=%q", e.Depth, e.Tip.CommonName)
	default:
		return fmt.Sprintf("event(%d)", int(e.Kind))
	}
}

// String renders the whole trace, one event per line.
func (t *Trace) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	lines := make([]string, len(t.Events))
	for i, e := range t.Events {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// add appends an event; nil traces swallow everything so call sites need no
// guards.
func (t *Trace) add(e TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Events = append(t.Events, e)
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.Events)
}

func sourceName(s candSource) string {
	switch s {
	case sourceRoots:
		return "roots"
	case sourceList:
		return "list"
	case sourceCache:
		return "cache"
	case sourceAIA:
		return "aia"
	default:
		return "?"
	}
}

// recordStep logs a candidate-collection event.
func (s *searcher) recordStep(current *certmodel.Certificate, depth int, cands []candidate) {
	if s.builder.Trace == nil {
		return
	}
	ev := TraceEvent{Kind: TraceStep, Depth: depth, Tip: current.Subject}
	if len(cands) == 0 {
		ev.Kind = TraceDeadEnd
		s.builder.Trace.add(ev)
		return
	}
	for i, c := range cands {
		ev.Candidates = append(ev.Candidates, TraceCandidate{
			Subject:  c.cert.Subject,
			Serial:   c.cert.SerialNumber,
			Source:   sourceName(c.source),
			Position: int(c.pos),
			Chosen:   i == 0,
		})
	}
	s.builder.Trace.add(ev)
}

// recordAttempt logs a path-validation event. A rejected path's reason is
// formatted only here, behind the nil-Trace check: untraced builds reject
// most candidate paths and never read it.
func (s *searcher) recordAttempt(path []*certmodel.Certificate, res validate.Result) {
	if s.builder.Trace == nil {
		return
	}
	detail := ""
	if !res.OK && len(res.Findings) > 0 {
		detail = res.Findings[0].String()
	}
	s.builder.Trace.add(TraceEvent{
		Kind:     TraceAttempt,
		Depth:    len(path),
		Tip:      path[len(path)-1].Subject,
		Accepted: res.OK,
		Detail:   detail,
	})
}

package dec10

import (
	"context"

	"repro/internal/engine"
	"repro/internal/term"
)

// EngineName is the DEC-10 baseline's identity in run reports and CLI
// messages.
const EngineName = "dec10"

// NewSession opens an engine.Session driving a precompiled query on an
// existing machine — the path the harness uses with pooled machines and
// shared read-only program images.
func NewSession(m *Machine, q *Query) engine.Session {
	return &session{sols: m.SolveQuery(q)}
}

// session adapts Solutions to engine.Session.
type session struct {
	sols *Solutions
}

func (s *session) Next(ctx context.Context) (engine.Status, error) {
	st := s.sols.Run(ctx)
	if st == engine.Failed {
		return st, s.sols.Err()
	}
	return st, nil
}

func (s *session) Bindings() map[string]*term.Term { return s.sols.Bindings() }

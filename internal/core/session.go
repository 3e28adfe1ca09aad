package core

import (
	stdcontext "context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/kl0"
	"repro/internal/parse"
	"repro/internal/term"
)

// EngineName is the PSI machine's identity in engine metrics, run
// reports and CLI messages.
const EngineName = "psi"

// Eng implements engine.Engine for the PSI machine. Cfg is the machine
// configuration template each session's machine is built from (its Out
// and MaxSteps are overridden by the session options).
type Eng struct{ Cfg Config }

// Name identifies the engine.
func (Eng) Name() string { return EngineName }

// Compiled is a compiled program plus query, ready to open sessions on.
type Compiled struct {
	Prog  *kl0.Program
	Query *kl0.Query
}

// Engine names the engine that compiled the program.
func (*Compiled) Engine() string { return EngineName }

// Compile parses and compiles source and query for the PSI machine.
func (Eng) Compile(name, source, query string) (engine.Program, error) {
	prog := kl0.NewProgram(nil)
	cs, err := parse.Clauses(name, source)
	if err != nil {
		return nil, err
	}
	if err := prog.AddClauses(cs); err != nil {
		return nil, err
	}
	g, err := parse.Term(query)
	if err != nil {
		return nil, err
	}
	q, err := prog.CompileQuery(g)
	if err != nil {
		return nil, err
	}
	return &Compiled{Prog: prog, Query: q}, nil
}

// NewSession builds a fresh machine for the program and starts the
// compiled query on it.
func (e Eng) NewSession(p engine.Program, opts engine.Options) (engine.Session, error) {
	c, ok := p.(*Compiled)
	if !ok {
		return nil, fmt.Errorf("core: program %T was not compiled by the psi engine", p)
	}
	cfg := e.Cfg
	cfg.Out = opts.Out
	cfg.MaxSteps = opts.MaxSteps
	return NewSession(New(c.Prog, cfg), c.Query), nil
}

// NewSession opens an engine.Session driving a precompiled query on an
// existing machine — the path the harness uses with pooled machines and
// shared read-only program images.
func NewSession(m *Machine, q *kl0.Query) engine.Session {
	return &session{m: m, sols: m.SolveQuery(q)}
}

// session adapts Solutions to engine.Session.
type session struct {
	m    *Machine
	sols *Solutions
}

func (s *session) Step(budget int64) (engine.Status, error) {
	st := s.sols.Step(budget)
	if st == engine.Failed {
		return st, s.sols.Err()
	}
	return st, nil
}

func (s *session) Next(ctx stdcontext.Context) (engine.Status, error) {
	return engine.Drive(ctx, s.Step)
}

func (s *session) Bindings() map[string]*term.Term { return s.sols.Bindings() }

func (s *session) Metrics() engine.Metrics {
	return engine.Metrics{
		Engine:     EngineName,
		Steps:      s.m.Stats().Steps,
		TimeNS:     s.m.TimeNS(),
		Inferences: s.m.Inferences(),
		Mode:       s.m.AccountingMode(),
	}
}

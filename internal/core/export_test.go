package core

// StepStop exposes the event-boundary sentinel to the external tests.
func (m *Machine) StepStop() int64 { return m.stepStop }

package core

// StepStop exposes the event-boundary sentinel to the external tests.
func (m *Machine) StepStop() int64 { return m.stepStop }

// MemStop exposes the memory cycles' sentinel to the external tests.
func (m *Machine) MemStop() int64 { return m.memStop }

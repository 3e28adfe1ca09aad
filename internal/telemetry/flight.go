package telemetry

// Flight recorder: a fixed-size ring of the most recent telemetry
// events of one session — each Solutions.Run with its outcome,
// heartbeats, and finally the fault that ended the run. When a
// chaos run aborts with engine.ErrFault (exit 7), the ring is dumped
// into the run report's fault block, so the incident ships its own
// post-mortem instead of just a classification.
//
// Events are keyed by the simulated step count, which is deterministic
// for a given program and fault plan — the dump is reproducible.

// DefaultFlightSize is the ring capacity the CLIs use. Sessions emit a
// handful of events per run plus one per heartbeat, so 64 entries hold
// the recent past of even a long run.
const DefaultFlightSize = 64

// FlightEvent is one recorded event.
type FlightEvent struct {
	// Seq is the global sequence number of the event in this session
	// (monotonic; reveals how many events the ring dropped).
	Seq int64 `json:"seq"`
	// Step is the simulated step count when the event was recorded.
	Step int64 `json:"step"`
	// Kind classifies the event: "step" (a run starts), "solution",
	// "exhausted", "error", "fault", "heartbeat".
	Kind string `json:"kind"`
	// Detail is a short deterministic description (fault site, error).
	Detail string `json:"detail,omitempty"`
}

// Flight is the ring. Like the machine it instruments it is not safe
// for concurrent use; each session owns its own recorder.
type Flight struct {
	ring []FlightEvent
	n    int64 // events ever recorded
}

// NewFlight returns a recorder keeping the last capacity events
// (capacity <= 0 selects DefaultFlightSize).
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightSize
	}
	return &Flight{ring: make([]FlightEvent, 0, capacity)}
}

// Record appends an event, evicting the oldest once the ring is full.
func (f *Flight) Record(step int64, kind, detail string) {
	e := FlightEvent{Seq: f.n, Step: step, Kind: kind, Detail: detail}
	f.n++
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, e)
		return
	}
	f.ring[int(e.Seq)%cap(f.ring)] = e
}

// Len reports how many events the ring currently holds.
func (f *Flight) Len() int { return len(f.ring) }

// Recorded reports how many events were ever recorded (>= Len once the
// ring wrapped).
func (f *Flight) Recorded() int64 { return f.n }

// Events returns the retained events oldest-first.
func (f *Flight) Events() []FlightEvent {
	out := make([]FlightEvent, 0, len(f.ring))
	if f.n > int64(cap(f.ring)) {
		// The ring wrapped: the oldest retained event sits right after
		// the most recently written slot.
		start := int(f.n % int64(cap(f.ring)))
		out = append(out, f.ring[start:]...)
		out = append(out, f.ring[:start]...)
		return out
	}
	return append(out, f.ring...)
}

// Reset clears the recorder for reuse by another session.
func (f *Flight) Reset() {
	f.ring = f.ring[:0]
	f.n = 0
}

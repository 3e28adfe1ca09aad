package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Streamed responses: one event per solution as the machine finds it,
// optional heartbeats while it searches, and a terminal report event
// carrying the full psi-run-report/v1 document. The wire format is
// NDJSON (one JSON object per line) by default, or Server-Sent Events
// when the client asks with `Accept: text/event-stream`; the event
// payloads are identical.

// StreamEvent is one streamed event. Event selects which fields are
// populated:
//
//	"solution":  N, Bindings
//	"heartbeat": Cycles, SimNS, Inferences
//	"error":     Class, Status, Error (the run ended abnormally)
//	"report":    Report (always the final event of a run)
type StreamEvent struct {
	Event      string            `json:"event"`
	N          int               `json:"n,omitempty"`
	Bindings   map[string]string `json:"bindings,omitempty"`
	Cycles     int64             `json:"cycles,omitempty"`
	SimNS      int64             `json:"sim_ns,omitempty"`
	Inferences int64             `json:"inferences,omitempty"`
	Class      string            `json:"class,omitempty"`
	Status     int               `json:"status,omitempty"`
	Error      string            `json:"error,omitempty"`
	Report     *obs.RunReport    `json:"report,omitempty"`
}

// eventWriter renders StreamEvents onto a response, flushing after each
// so solutions reach the client as the simulation produces them.
type eventWriter struct {
	w     http.ResponseWriter
	flush http.Flusher
	sse   bool
	err   error // first write failure; subsequent writes are dropped
}

func newEventWriter(w http.ResponseWriter, r *http.Request) *eventWriter {
	ew := &eventWriter{w: w}
	ew.flush, _ = w.(http.Flusher)
	ew.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if ew.sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	return ew
}

// write emits one event; on SSE the event name doubles as the SSE event
// field. Errors stick: the first failed write marks the client gone.
func (ew *eventWriter) write(ev StreamEvent) error {
	if ew.err != nil {
		return ew.err
	}
	b, err := json.Marshal(ev)
	if err != nil {
		ew.err = err
		return err
	}
	if ew.sse {
		_, err = ew.w.Write([]byte("event: " + ev.Event + "\ndata: " + string(b) + "\n\n"))
	} else {
		_, err = ew.w.Write(append(b, '\n'))
	}
	if err != nil {
		ew.err = err
		return err
	}
	if ew.flush != nil {
		ew.flush.Flush()
	}
	return nil
}

// streamSolve runs the job, streaming each solution (and heartbeat) as
// an event and closing with an error event (for abnormal terminations)
// plus the terminal report event. The HTTP status is always 200 — the
// stream was accepted; how the run ended travels in the events, with
// the same class → status mapping quoted in the error event.
func (s *Server) streamSolve(ctx context.Context, w http.ResponseWriter, r *http.Request, spec *JobSpec) {
	ew := newEventWriter(w, r)
	w.Header().Set("X-Psi-Schema", obs.ReportSchema)
	w.WriteHeader(http.StatusOK)
	if ew.flush != nil {
		ew.flush.Flush()
	}

	emit := func(n int, bindings map[string]string) error {
		return ew.write(StreamEvent{Event: "solution", N: n, Bindings: bindings})
	}
	hb := func(h core.Heartbeat) {
		// Heartbeats are best-effort; a failed write surfaces on the
		// next solution or report write.
		ew.write(StreamEvent{
			Event:      "heartbeat",
			Cycles:     h.Steps,
			SimNS:      h.SimNS,
			Inferences: h.Inferences,
		})
	}

	res, err := s.execute(ctx, spec, emit, hb)
	if err != nil {
		class := engine.ClassName(err)
		classMetric(class)
		ew.write(StreamEvent{
			Event:  "error",
			Class:  class,
			Status: StatusFor(err),
			Error:  err.Error(),
		})
		return
	}
	class := engine.ClassName(res.runErr)
	classMetric(class)
	if res.runErr != nil {
		// Best-effort: if the run ended because the client left, this
		// write fails silently into the closed connection.
		ew.write(StreamEvent{
			Event:  "error",
			Class:  class,
			Status: StatusForClass(class),
			Error:  res.runErr.Error(),
		})
	}
	ew.write(StreamEvent{Event: "report", Report: res.report})
}

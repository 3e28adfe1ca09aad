package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The stuck-session watchdog. Sessions normally end themselves: the
// engine's Next polls the job context every CheckEvery steps, so a
// deadline or cancel lands within ~64K simulated steps. The watchdog is
// the backstop for the runs where that discipline fails — a session
// wedged inside one enormous instruction dispatch, a simulator bug that
// stops consuming budget, a future engine that forgets to poll. It
// patrols the in-flight registry on a wall-clock tick and hard-cancels
// any session that overstayed:
//
//   - a job with a wall budget is killed once it exceeds grace × budget
//     (grace > 1, so the watchdog only ever fires after the session had
//     every chance to end itself with the deadline class);
//   - a job with no wall budget is killed after the MaxStuck cap, when
//     one is configured (0 leaves unbudgeted jobs exempt).
//
// The kill travels through the same cancel seam a drain hard-cancel
// uses — the job context's CancelFunc feeding engine.Session.Next — so
// the session ends with the canceled class and a full report; the
// serving layer then stamps the report's fault block with site
// "watchdog" and dumps the telemetry flight ring into it, so the
// incident ships its own post-mortem. Every kill bumps the
// psid_watchdog_kills_total metric (watchdogKillsMetric).
//
// The patrol goroutine runs only while watched jobs are in flight: it
// starts on the 0→1 registry transition and exits when the registry
// empties, so an idle (or test-constructed) server holds no background
// goroutine — which is also what lets the soak harness assert
// goroutine-leak freedom.

// watchdogKillsMetric names the kill counter, with the daemon's psid_
// prefix; registerServeFamilies pre-registers it and patrol bumps it.
const (
	watchdogKillsMetric = "psid_watchdog_kills_total"
	watchdogKillsHelp   = "stuck sessions hard-canceled by the watchdog"
)

// watchedJob is one in-flight run under watchdog protection.
type watchedJob struct {
	id       int64
	workload string
	start    time.Time
	killAt   time.Time // zero = exempt (unbudgeted, no MaxStuck cap)
	cancel   func()
	killed   atomic.Bool
}

// Killed reports whether the watchdog hard-canceled this job.
func (j *watchedJob) Killed() bool { return j != nil && j.killed.Load() }

// watchdog is the in-flight registry plus its patrol loop.
type watchdog struct {
	grace    float64
	maxStuck time.Duration
	interval time.Duration

	mu        sync.Mutex
	seq       int64
	jobs      map[int64]*watchedJob
	patroling bool

	kills atomic.Int64
}

func newWatchdog(grace float64, maxStuck, interval time.Duration) *watchdog {
	return &watchdog{
		grace:    grace,
		maxStuck: maxStuck,
		interval: interval,
		jobs:     map[int64]*watchedJob{},
	}
}

// admit registers one starting job. budget is the job's wall-clock
// budget (0 = none); cancel is the job context's CancelFunc — the same
// seam a drain hard-cancel pulls.
func (w *watchdog) admit(workload string, start time.Time, budget time.Duration, cancel func()) *watchedJob {
	var killAt time.Time
	switch {
	case budget > 0:
		killAt = start.Add(time.Duration(w.grace * float64(budget)))
	case w.maxStuck > 0:
		killAt = start.Add(w.maxStuck)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	j := &watchedJob{id: w.seq, workload: workload, start: start, killAt: killAt, cancel: cancel}
	w.jobs[j.id] = j
	if !w.patroling {
		w.patroling = true
		go w.patrol()
	}
	return j
}

// done removes a finished job from the registry.
func (w *watchdog) done(j *watchedJob) {
	if j == nil {
		return
	}
	w.mu.Lock()
	delete(w.jobs, j.id)
	w.mu.Unlock()
}

// patrol sweeps the registry every interval, killing overstayers, and
// exits once the registry is empty.
func (w *watchdog) patrol() {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for range t.C {
		w.mu.Lock()
		now := time.Now()
		for _, j := range w.jobs {
			if !j.killAt.IsZero() && now.After(j.killAt) && j.killed.CompareAndSwap(false, true) {
				j.cancel()
				w.kills.Add(1)
				telemetry.Default.Counter(watchdogKillsMetric, watchdogKillsHelp).Inc()
			}
		}
		if len(w.jobs) == 0 {
			w.patroling = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
	}
}

// Kills reports how many sessions the watchdog has hard-canceled.
func (w *watchdog) Kills() int64 { return w.kills.Load() }

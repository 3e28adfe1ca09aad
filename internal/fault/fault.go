// Package fault is the deterministic fault-injection and containment
// layer of the simulation stack. The PSI hardware carried tag and parity
// checking on its memory path and a console processor whose COLLECT
// measurements were only trustworthy because corrupted state was
// *detected* rather than silently consumed; this package reproduces that
// discipline for the simulator.
//
// A Plan names one reproducible fault: a site (mem, cache, wf, trace), a
// trigger (the Nth access to that site, or every Nth access) and a seed
// that fixes every pseudo-random choice the injection makes (which bit
// flips, where a stream truncates). Plan.New builds a per-run Injector;
// the memory, cache and work-file models and the machine's cycle stream
// call its site hooks on every access. When the trigger fires, the
// injector corrupts the accessed state and — modelling the hardware's
// parity/tag checker detecting the flip on that same access — raises a
// *Check by panicking. The engine session boundary (internal/core,
// internal/dec10) recovers the panic and converts it into a classified
// engine.ErrFault, so a chaos run always terminates classified, never
// with an uncontained crash.
//
// Everything is deterministic: the same Plan against the same workload
// faults at the same simulated step with the same message, byte for
// byte, at any harness worker count. Sweep expands one seed into a
// reproducible plan set covering every site, which `make chaos` replays
// under the race detector.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/word"
)

// Site names an injection site in the simulation stack.
type Site uint8

// Injection sites.
const (
	// SiteNone is the zero value; a Plan must name a real site.
	SiteNone Site = iota
	// SiteMem flips a bit in a main-memory word on the Nth memory
	// access; the parity checker detects it on the same access.
	SiteMem
	// SiteCache poisons the cache block frame touched by the Nth cache
	// command; the tag-store parity checker detects it immediately.
	SiteCache
	// SiteWF overflows the work-file bounds on the Nth work-file write
	// (frame buffer, trail buffer or register write).
	SiteWF
	// SiteTrace overruns the COLLECT trace FIFO at the Nth cycle record
	// of the machine's cycle stream.
	SiteTrace
	// NumSites bounds the site enumeration.
	NumSites
)

var siteNames = [...]string{"none", "mem", "cache", "wf", "trace"}

// String names the site as used in plans, error messages and reports.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "site?"
}

// ParseSite resolves a site name.
func ParseSite(s string) (Site, error) {
	for i, n := range siteNames[1:] {
		if s == n {
			return Site(i + 1), nil
		}
	}
	return SiteNone, fmt.Errorf("fault: unknown site %q (want mem, cache, wf or trace)", s)
}

// Plan describes one reproducible fault: where it strikes, when, and the
// seed fixing every random choice it makes. The zero value is inert; a
// usable plan names a Site and (optionally) a trigger.
type Plan struct {
	// Site is the injection site.
	Site Site
	// Seed fixes the injector's pseudo-random choices (0 is a valid
	// seed: the generator is seeded with Seed+1 internally).
	Seed uint64
	// After fires the fault at exactly the After-th armed access to the
	// site (1-based; 0 means the very first access).
	After int64
	// Every, when positive, fires instead at every Every-th access —
	// the rate form of the trigger. A contained fault ends the run, so
	// under containment only the first firing is observed.
	Every int64
	// Only restricts injection to runs whose workload or evaluation-cell
	// label contains this substring (empty = every run). This is how a
	// chaos evaluation faults one workload while the rest stay clean.
	Only string
}

// String renders the plan in the canonical flag syntax accepted by Parse.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site=%s", p.Site)
	if p.After != 0 {
		fmt.Fprintf(&b, ",after=%d", p.After)
	}
	if p.Every != 0 {
		fmt.Fprintf(&b, ",every=%d", p.Every)
	}
	if p.Seed != 0 {
		fmt.Fprintf(&b, ",seed=%d", p.Seed)
	}
	if p.Only != "" {
		fmt.Fprintf(&b, ",only=%s", p.Only)
	}
	return b.String()
}

// Parse reads a plan from its flag syntax: a comma-separated key=value
// list with keys site (required), after, every, seed and only, e.g.
// "site=mem,after=5000,seed=7" or "site=trace,every=100000,only=table2/".
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad plan element %q (want key=value)", kv)
		}
		switch k {
		case "site":
			site, err := ParseSite(v)
			if err != nil {
				return nil, err
			}
			p.Site = site
		case "after", "every", "seed":
			// after/every are int64 ordinals (63 bits); seed is a full
			// uint64 — Sweep derives seeds from splitmix64, which uses
			// the whole range, and Plan.String must round-trip them.
			bits := 63
			if k == "seed" {
				bits = 64
			}
			n, err := strconv.ParseUint(v, 10, bits)
			if err != nil {
				return nil, fmt.Errorf("fault: bad %s value %q: %v", k, v, err)
			}
			switch k {
			case "after":
				p.After = int64(n)
			case "every":
				p.Every = int64(n)
			case "seed":
				p.Seed = n
			}
		case "only":
			p.Only = v
		default:
			return nil, fmt.Errorf("fault: unknown plan key %q (want site, after, every, seed or only)", k)
		}
	}
	if p.Site == SiteNone {
		return nil, fmt.Errorf("fault: plan %q names no site", s)
	}
	return p, nil
}

// Matches reports whether the plan applies to a run labelled label (the
// evaluation cell, e.g. "table2/quick sort (50)", or the workload name).
func (p *Plan) Matches(label string) bool {
	return p.Only == "" || strings.Contains(label, p.Only)
}

// New builds a fresh per-run injector for the plan. Injectors are
// single-machine state and must not be shared across concurrent runs;
// the harness builds one per simulated run.
func (p *Plan) New() *Injector {
	return &Injector{plan: *p, rng: splitmix64(p.Seed + 1)}
}

// Injector carries the countdown state of one run's fault. The machine
// arms it only while stepping (Solve/Step), so decode, report and
// bindings paths after containment never re-fire it.
type Injector struct {
	plan  Plan
	rng   uint64
	armed bool
	n     [NumSites]int64
}

// Arm enables the site hooks; the interpreter core arms the injector
// around its run loop only.
func (i *Injector) Arm() { i.armed = true }

// Disarm disables the site hooks.
func (i *Injector) Disarm() { i.armed = false }

// fire counts an armed access to site and reports whether the fault
// triggers on it.
func (i *Injector) fire(s Site) (int64, bool) {
	if i == nil || !i.armed || s != i.plan.Site {
		return 0, false
	}
	i.n[s]++
	n := i.n[s]
	if i.plan.Every > 0 {
		return n, n%i.plan.Every == 0
	}
	after := i.plan.After
	if after <= 0 {
		after = 1
	}
	return n, n == after
}

// rand draws the next value of the seeded splitmix64 stream.
func (i *Injector) rand() uint64 {
	i.rng = splitmix64(i.rng)
	return i.rng
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Check is the machine check a detected fault raises: the simulated
// hardware's parity/tag/bounds checker caught corrupted state at an
// injection site. It is raised by panicking from a site hook and is
// recovered (and classified as engine.ErrFault) at the engine session
// boundary.
type Check struct {
	// Site is the injection site that detected the fault.
	Site Site
	// N is the site-access ordinal at which the fault fired (the
	// injector's own deterministic counter, not machine steps).
	N int64
	// Addr locates the corrupted word/block where the site has one.
	Addr uint32
	// Bit is the flipped bit position where the corruption is a flip.
	Bit int
	// Msg describes the detection in hardware terms.
	Msg string
}

// Error renders the check; the text is deterministic for a given plan
// and workload, so degraded reports are byte-stable.
func (c *Check) Error() string {
	return fmt.Sprintf("%s check at access %d: %s", c.Site, c.N, c.Msg)
}

// wordBits is the PSI word width (8-bit tag + 32-bit data) for choosing
// which bit an injected flip corrupts.
const wordBits = 40

// MemAccess is the main-memory hook: on the triggering access it flips a
// seeded-random bit in the accessed word and raises the parity check
// that flip would trip on the same access.
func (i *Injector) MemAccess(a word.Addr) {
	n, ok := i.fire(SiteMem)
	if !ok {
		return
	}
	bit := int(i.rand() % wordBits)
	kind := "data"
	if bit >= 32 {
		kind = "tag"
	}
	panic(&Check{
		Site: SiteMem, N: n, Addr: uint32(a), Bit: bit,
		Msg: fmt.Sprintf("memory parity error: %s bit %d flipped in word at %v", kind, bit, a),
	})
}

// CacheAccess is the cache hook: on the triggering cache command it
// poisons the touched block frame and raises the tag-store parity check.
func (i *Injector) CacheAccess(block uint32) {
	n, ok := i.fire(SiteCache)
	if !ok {
		return
	}
	bit := int(i.rand() % 32)
	panic(&Check{
		Site: SiteCache, N: n, Addr: block, Bit: bit,
		Msg: fmt.Sprintf("cache tag parity error: bit %d flipped in block frame %d", bit, block),
	})
}

// WFWrite is the work-file hook: on the triggering register-file write
// it forces the address out of bounds and raises the bounds check.
func (i *Injector) WFWrite(idx int) {
	n, ok := i.fire(SiteWF)
	if !ok {
		return
	}
	over := int(i.rand()%64) + 1
	panic(&Check{
		Site: SiteWF, N: n, Addr: uint32(idx),
		Msg: fmt.Sprintf("work-file bounds overflow: write at word %#x forced %d words past the file", idx, over),
	})
}

// TraceRecord is the cycle-stream hook: on the triggering record it
// models the COLLECT FIFO overrunning, losing the measurement stream.
// Unlike the other hooks it returns the fault instead of raising it:
// the machine raises it once the cycle's memory access is counted.
func (i *Injector) TraceRecord() *Check {
	n, ok := i.fire(SiteTrace)
	if !ok {
		return nil
	}
	return &Check{
		Site: SiteTrace, N: n,
		Msg: fmt.Sprintf("COLLECT trace FIFO overrun at record %d: measurement stream lost", n),
	}
}

// CorruptTrace deterministically damages a serialized trace stream (the
// internal/trace binary format) for decoder robustness tests: depending
// on the seed it truncates the stream mid-record, flips a bit in the
// header, or flips a bit in the body. The input is not modified.
func CorruptTrace(data []byte, seed uint64) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	r := splitmix64(seed + 1)
	switch seed % 3 {
	case 0: // truncate somewhere in the stream
		out = out[:int(r%uint64(len(out)))]
	case 1: // corrupt the header region
		n := len(out)
		if n > 16 {
			n = 16
		}
		out[int(r%uint64(n))] ^= byte(1 << (r >> 8 % 8))
	default: // flip a bit anywhere in the body
		out[int(r%uint64(len(out)))] ^= byte(1 << (r >> 8 % 8))
	}
	return out
}

// Sweep expands one seed into a reproducible chaos plan set: perSite
// plans for every injectable site, with trigger ordinals drawn
// deterministically from [1, maxAfter] and per-plan seeds derived from
// the base seed. The same arguments always yield the same plans, so a
// chaos run is replayable byte for byte.
func Sweep(seed uint64, perSite int, maxAfter int64) []Plan {
	if perSite <= 0 {
		perSite = 1
	}
	if maxAfter <= 0 {
		maxAfter = 1
	}
	s := splitmix64(seed)
	var plans []Plan
	for site := SiteMem; site < NumSites; site++ {
		for k := 0; k < perSite; k++ {
			s = splitmix64(s)
			after := int64(s%uint64(maxAfter)) + 1
			s = splitmix64(s)
			plans = append(plans, Plan{Site: site, Seed: s, After: after})
		}
	}
	// Deterministic, readable order: by site, then trigger ordinal.
	sort.SliceStable(plans, func(a, b int) bool {
		if plans[a].Site != plans[b].Site {
			return plans[a].Site < plans[b].Site
		}
		return plans[a].After < plans[b].After
	})
	return plans
}

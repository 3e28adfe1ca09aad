package fault

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/word"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"site=mem",
		"site=cache,after=100",
		"site=wf,every=7",
		"site=trace,after=5000,seed=9",
		"site=mem,after=100,seed=1,only=nreverse",
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := p.String(); got != in {
			t.Errorf("Parse(%q).String() = %q, want the input back", in, got)
		}
		// String() must itself re-parse to the same plan.
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if *back != *p {
			t.Errorf("re-Parse(%q) = %+v, want %+v", p.String(), back, p)
		}
	}
}

// TestSweepPlansRoundTripFlagSyntax is the regression for 64-bit sweep
// seeds: every plan Sweep generates must survive String() -> Parse()
// unchanged, because the soak harness ships sweep plans to the daemon
// through the job spec's -fault flag syntax.
func TestSweepPlansRoundTripFlagSyntax(t *testing.T) {
	for _, p := range Sweep(1, 3, 60_000) {
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if *back != p {
			t.Errorf("round trip of %q = %+v, want %+v", p.String(), back, p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring of the error
	}{
		{"mem", "want key=value"},
		{"site=disk", "unknown site"},
		{"site=mem,after=xyz", "bad after value"},
		{"site=mem,after=-3", "bad after value"},
		{"site=mem,rate=5", "unknown plan key"},
		{"after=100,seed=1", "names no site"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error mentioning %q", tc.in, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", tc.in, err, tc.want)
		}
	}
}

func TestMatches(t *testing.T) {
	p := &Plan{Site: SiteMem, Only: "table2/"}
	if !p.Matches("table2/quick sort (50)") {
		t.Error("plan with only=table2/ must match a table2 cell")
	}
	if p.Matches("table1/quick sort (50)") {
		t.Error("plan with only=table2/ must not match a table1 cell")
	}
	any := &Plan{Site: SiteMem}
	if !any.Matches("anything at all") {
		t.Error("plan without Only must match every label")
	}
}

// catch runs f and returns the *Check it panics with, or nil.
func catch(t *testing.T, f func()) (c *Check) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if c, ok = r.(*Check); !ok {
			t.Fatalf("panic value %T, want *fault.Check", r)
		}
	}()
	f()
	return nil
}

func TestInjectorFiresDeterministically(t *testing.T) {
	plan := &Plan{Site: SiteMem, After: 3, Seed: 42}
	var msgs []string
	for run := 0; run < 2; run++ {
		inj := plan.New()
		inj.Arm()
		var got *Check
		for i := 0; i < 10 && got == nil; i++ {
			got = catch(t, func() { inj.MemAccess(word.Addr(i)) })
			if got == nil && i >= 3 {
				t.Fatalf("run %d: no check by access %d, want one at access 3", run, i+1)
			}
		}
		if got == nil {
			t.Fatalf("run %d: injector never fired", run)
		}
		if got.Site != SiteMem || got.N != 3 {
			t.Errorf("run %d: fired %+v, want site mem at access 3", run, got)
		}
		msgs = append(msgs, got.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("same plan produced different checks:\n%s\n%s", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[0], "mem check at access 3") {
		t.Errorf("check text %q missing the site/ordinal prefix", msgs[0])
	}
}

func TestInjectorGating(t *testing.T) {
	plan := &Plan{Site: SiteMem, After: 1}

	// Disarmed: the hook must never fire, and must not count accesses.
	inj := plan.New()
	for i := 0; i < 5; i++ {
		if c := catch(t, func() { inj.MemAccess(word.Addr(i)) }); c != nil {
			t.Fatalf("disarmed injector fired: %v", c)
		}
	}
	inj.Arm()
	c := catch(t, func() { inj.MemAccess(word.Addr(99)) })
	if c == nil || c.N != 1 {
		t.Fatalf("after arming, first access should be ordinal 1, got %+v", c)
	}

	// Wrong site: mem plan must ignore cache/wf/trace accesses.
	inj = plan.New()
	inj.Arm()
	for i := 0; i < 5; i++ {
		if c := catch(t, func() { inj.CacheAccess(uint32(i)) }); c != nil {
			t.Fatalf("mem plan fired on cache access: %v", c)
		}
		if c := catch(t, func() { inj.WFWrite(i) }); c != nil {
			t.Fatalf("mem plan fired on wf write: %v", c)
		}
		if c := inj.TraceRecord(); c != nil {
			t.Fatalf("mem plan fired on trace record: %v", c)
		}
	}

	// Nil injector: hooks must be safe no-ops.
	var nilInj *Injector
	if c := catch(t, func() { nilInj.MemAccess(0) }); c != nil {
		t.Fatalf("nil injector fired: %v", c)
	}
}

func TestInjectorEvery(t *testing.T) {
	plan := &Plan{Site: SiteTrace, Every: 4}
	inj := plan.New()
	inj.Arm()
	for i := 1; i <= 3; i++ {
		if c := inj.TraceRecord(); c != nil {
			t.Fatalf("every=4 fired at access %d: %v", i, c)
		}
	}
	c := inj.TraceRecord()
	if c == nil || c.N != 4 {
		t.Fatalf("every=4 should fire at access 4, got %+v", c)
	}
}

func TestSweepDeterministicAndCoversAllSites(t *testing.T) {
	a := Sweep(7, 3, 2000)
	b := Sweep(7, 3, 2000)
	if len(a) != len(b) || len(a) != 3*int(NumSites-1) {
		t.Fatalf("sweep sizes %d, %d; want %d", len(a), len(b), 3*int(NumSites-1))
	}
	seen := map[Site]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("plan %d differs between identical sweeps: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].After < 1 || a[i].After > 2000 {
			t.Errorf("plan %d trigger %d outside [1, 2000]", i, a[i].After)
		}
		seen[a[i].Site]++
	}
	for site := SiteMem; site < NumSites; site++ {
		if seen[site] != 3 {
			t.Errorf("site %v has %d plans, want 3", site, seen[site])
		}
	}
	if other := Sweep(8, 3, 2000); other[0] == a[0] && other[1] == a[1] {
		t.Error("different seeds produced the same leading plans")
	}
}

func TestCorruptTrace(t *testing.T) {
	orig := []byte("PSITRACE0\x00\x00\x00\x00\x00\x00\x00record-body-bytes")
	keep := append([]byte(nil), orig...)
	for seed := uint64(0); seed < 9; seed++ {
		a := CorruptTrace(orig, seed)
		b := CorruptTrace(orig, seed)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: corruption is not deterministic", seed)
		}
		if bytes.Equal(a, orig) && len(a) == len(orig) {
			t.Errorf("seed %d: corruption left the stream intact", seed)
		}
		if !bytes.Equal(orig, keep) {
			t.Fatalf("seed %d: CorruptTrace modified its input", seed)
		}
	}
	if got := CorruptTrace(nil, 1); len(got) != 0 {
		t.Errorf("corrupting an empty stream returned %d bytes", len(got))
	}
}

// TestCheckIsError pins the Check type to the error interface its
// containment path relies on.
func TestCheckIsError(t *testing.T) {
	var err error = &Check{Site: SiteWF, N: 12, Msg: "boom"}
	var c *Check
	if !errors.As(err, &c) || c.N != 12 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if want := "wf check at access 12: boom"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

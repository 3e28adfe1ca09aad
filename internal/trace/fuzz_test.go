package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/fault"
	"repro/internal/micro"
	"repro/internal/word"
)

// validTraceBytes encodes a small log for the seed corpus.
func validTraceBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	var l Log
	for i := 0; i < n; i++ {
		l.Cycle(micro.Cycle{
			Module: micro.Module(i % int(micro.NumModules)),
			Cache:  micro.CacheOp(i % int(micro.NumCacheOps)),
			Addr:   word.MakeAddr(word.AreaHeap, uint32(i)),
			Data:   i%2 == 0,
		})
	}
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceRead hammers the trace-file decoder with arbitrary bytes:
// whatever the input — corrupted headers, lying record counts, truncated
// bodies — Read must either fail with an error or return a log that
// re-encodes and re-decodes to the same records. It must never panic and
// never let a corrupt header demand absurd allocations.
func FuzzTraceRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NOTATRACE-------"))
	f.Add([]byte(magic))              // header only, count missing
	f.Add(validTraceBytes(f, 0))      // empty log
	f.Add(validTraceBytes(f, 3))      // small valid log
	f.Add(validTraceBytes(f, 3)[:25]) // truncated mid-record
	lying := validTraceBytes(f, 1)
	binary.LittleEndian.PutUint64(lying[len(magic):], 1<<33) // count >> body
	f.Add(lying)
	huge := validTraceBytes(f, 0)
	binary.LittleEndian.PutUint64(huge[len(magic):], 1<<60) // implausible count
	f.Add(huge)
	// Seeded corruptions from the fault layer: deterministic header
	// bit-flips, mid-record truncations and body flips of a valid stream
	// (seed mod 3 picks the corruption mode, so 0..8 covers each thrice).
	for seed := uint64(0); seed < 9; seed++ {
		f.Add(fault.CorruptTrace(validTraceBytes(f, 7), seed))
	}
	headerFlip := validTraceBytes(f, 2)
	headerFlip[2] ^= 0x20 // corrupt the magic itself
	f.Add(headerFlip)
	midRecord := validTraceBytes(f, 4)
	f.Add(midRecord[:len(midRecord)-3]) // truncate inside the last record

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		// Accepted input: Write/Read must round-trip the decoded records
		// exactly (the padding byte is canonicalized, so we compare
		// records, not raw bytes).
		var buf bytes.Buffer
		if err := l.Write(&buf); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if len(back.Recs) != len(l.Recs) {
			t.Fatalf("round trip count %d, want %d", len(back.Recs), len(l.Recs))
		}
		for i := range l.Recs {
			if back.Recs[i] != l.Recs[i] {
				t.Fatalf("record %d: round trip %+v, want %+v", i, back.Recs[i], l.Recs[i])
			}
		}
		// The streaming decoder must agree with the materializing one.
		var n int
		if err := ReadStream(bytes.NewReader(data), func(r Rec) bool {
			if r != l.Recs[n] {
				t.Fatalf("stream record %d: %+v, want %+v", n, r, l.Recs[n])
			}
			n++
			return true
		}); err != nil {
			t.Fatalf("ReadStream rejected input Read accepted: %v", err)
		}
		if n != len(l.Recs) {
			t.Fatalf("stream yielded %d records, Read %d", n, len(l.Recs))
		}
	})
}

// FuzzTraceRoundTrip drives the encoder from arbitrary record contents:
// any log must Write and Read back identically.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(4), uint8(1), uint8(0), uint8(1), uint32(42), uint16(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint32(0), uint16(0))
	f.Add(uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint8(255), uint32(1<<31), uint16(65535))
	f.Fuzz(func(t *testing.T, mod, s1, s2, d, c, br, fl uint8, addr uint32, reps uint16) {
		n := int(reps)%257 + 1
		l := &Log{Recs: make([]Rec, 0, n)}
		for i := 0; i < n; i++ {
			l.Recs = append(l.Recs, Rec{
				Module: mod, Src1: s1, Src2: s2, Dest: d,
				Cache: c, Branch: br, Flags: fl,
				Addr: addr + uint32(i),
			})
		}
		var buf bytes.Buffer
		if err := l.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if len(back.Recs) != n {
			t.Fatalf("count %d, want %d", len(back.Recs), n)
		}
		for i := range l.Recs {
			if back.Recs[i] != l.Recs[i] {
				t.Fatalf("record %d: %+v, want %+v", i, back.Recs[i], l.Recs[i])
			}
		}
	})
}

package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"deact/internal/workload"
)

// recordOps runs n ops of the named benchmark's generator through a
// recorder tap and returns both the recorder and the ops it saw.
func recordOps(t *testing.T, bench string, n int) (*Recorder, []workload.Op) {
	t.Helper()
	p, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewSource(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(bench, 1)
	tapped := rec.Tap(0, src)
	tapped.SetTenant(3)
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = tapped.Next()
	}
	return rec, ops
}

// TestRoundTrip: encode → decode → replay reproduces the recorded op
// stream exactly (tenant re-stamped, everything else bit-identical).
func TestRoundTrip(t *testing.T) {
	rec, ops := recordOps(t, "mcf", 5000)
	if rec.Ops(0) != 5000 {
		t.Fatalf("recorder counted %d ops, want 5000", rec.Ops(0))
	}
	tr, err := Decode(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Benchmark() != "mcf" || tr.Streams() != 1 || tr.Ops(0) != 5000 {
		t.Fatalf("metadata: bench=%q streams=%d ops=%d", tr.Benchmark(), tr.Streams(), tr.Ops(0))
	}
	rp := tr.Source(0)
	rp.SetTenant(3)
	for i, want := range ops {
		if got := rp.Next(); got != want {
			t.Fatalf("op %d: replayed %+v, want %+v", i, got, want)
		}
	}
}

// TestReplayBitIdentical: two independent replays of the same trace (and a
// second Decode of the same bytes) produce identical streams and IDs.
func TestReplayBitIdentical(t *testing.T) {
	rec, _ := recordOps(t, "canl", 2000)
	enc := rec.Encode()
	a, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(append([]byte(nil), enc...))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() || len(a.ID()) != 32 {
		t.Fatalf("IDs differ or malformed: %q vs %q", a.ID(), b.ID())
	}
	if !a.Equal(b) {
		t.Fatal("decoded traces not Equal")
	}
	ra, rb := a.Source(0), b.Source(0)
	for i := 0; i < 2000; i++ {
		if oa, ob := ra.Next(), rb.Next(); oa != ob {
			t.Fatalf("op %d: replays diverged: %+v vs %+v", i, oa, ob)
		}
	}
}

// TestReplayWrap: consuming past the recorded length restarts the stream
// from op 0 with delta context reset.
func TestReplayWrap(t *testing.T) {
	rec, ops := recordOps(t, "sp", 100)
	tr, err := Decode(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	rp := tr.Source(0)
	rp.SetTenant(3)
	for i := 0; i < 350; i++ {
		want := ops[i%100]
		if got := rp.Next(); got != want {
			t.Fatalf("op %d (wrapped %d): %+v, want %+v", i, i%100, got, want)
		}
	}
}

// TestDecodeRejectsCorruption: truncation anywhere, trailing bytes, bad
// magic and version are all detected up front.
func TestDecodeRejectsCorruption(t *testing.T) {
	rec, _ := recordOps(t, "mcf", 200)
	enc := rec.Encode()
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(enc))
		}
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[len(magic)] = 2 // version
	if _, err := Decode(bad); err == nil {
		t.Error("future version accepted")
	}
}

// rawTrace assembles by hand a trace of one stream of ops ops around
// payload, with an empty benchmark name.
func rawTrace(ops uint64, payload []byte) []byte {
	out := []byte(magic)
	out = binary.AppendUvarint(out, version)
	out = binary.AppendUvarint(out, 0) // name length
	out = binary.AppendUvarint(out, 1) // stream count
	out = binary.AppendUvarint(out, ops)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	return append(out, payload...)
}

// splice returns b with its byte at index at replaced by ins.
func splice(b []byte, at int, ins ...byte) []byte {
	out := append([]byte(nil), b[:at]...)
	out = append(out, ins...)
	return append(out, b[at+1:]...)
}

// checkCanonical requires canonical to decode and every alias of the same
// ops to be rejected: an accepted alias would give those ops a second ID.
func checkCanonical(t *testing.T, canonical []byte, aliases map[string][]byte) {
	t.Helper()
	if _, err := Decode(canonical); err != nil {
		t.Fatalf("canonical form % x rejected: %v", canonical, err)
	}
	for name, b := range aliases {
		if tr, err := Decode(b); err == nil {
			t.Errorf("%s: % x accepted with ID %s", name, b, tr.ID())
		}
	}
}

// TestDecodeRejectsOverlongVarints: binary.Uvarint also accepts padded
// encodings such as 0x80 0x00 for 0, which the Recorder never writes.
func TestDecodeRejectsOverlongVarints(t *testing.T) {
	canon := rawTrace(1, []byte{0x00, 0x02}) // one op: Addr 1
	h := len(magic)
	checkCanonical(t, canon, map[string][]byte{
		"version":        splice(canon, h, 0x81, 0x00),
		"name length":    splice(canon, h+1, 0x80, 0x00),
		"stream count":   splice(canon, h+2, 0x81, 0x00),
		"op count":       splice(canon, h+3, 0x81, 0x00),
		"payload length": splice(canon, h+4, 0x82, 0x00),
		"address delta":  rawTrace(1, []byte{0x00, 0x82, 0x00}),
	})
	pc := []byte{flagPC, 0x02, 0x02} // PC 1, Addr 1
	checkCanonical(t, rawTrace(1, pc), map[string][]byte{
		"pc delta": rawTrace(1, []byte{flagPC, 0x82, 0x00, 0x02}),
	})
	esc := []byte{computeEscape << computeShift, 0x20, 0x02} // Compute 32
	checkCanonical(t, rawTrace(1, esc), map[string][]byte{
		"compute": rawTrace(1, []byte{computeEscape << computeShift, 0xa0, 0x00, 0x02}),
	})
}

// TestDecodeRejectsSmallEscapedCompute: a compute gap below 31 has only
// the inline form.
func TestDecodeRejectsSmallEscapedCompute(t *testing.T) {
	for c := byte(0); c < computeEscape; c++ {
		checkCanonical(t, rawTrace(1, []byte{c << computeShift, 0x02}), map[string][]byte{
			"escaped": rawTrace(1, []byte{computeEscape << computeShift, c, 0x02}),
		})
	}
}

// TestDecodeRejectsZeroPCDelta: a repeated PC is encoded by leaving the
// PC flag clear, never by a zero delta.
func TestDecodeRejectsZeroPCDelta(t *testing.T) {
	checkCanonical(t, rawTrace(1, []byte{0x00, 0x02}), map[string][]byte{
		"zero pc delta": rawTrace(1, []byte{flagPC, 0x00, 0x02}),
	})
}

// TestDecodeBoundsStreamCount: a 13-byte header claiming 1<<20 streams is
// rejected before Decode allocates room for them.
func TestDecodeBoundsStreamCount(t *testing.T) {
	data := []byte(magic)
	data = binary.AppendUvarint(data, version)
	data = binary.AppendUvarint(data, 0)
	data = binary.AppendUvarint(data, 1<<20)
	if len(data) != 13 {
		t.Fatalf("header is %d bytes, want 13", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("stream count beyond the data accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("Decode of a %d-byte header allocated %d bytes", len(data), alloc)
	}
}

// TestEncodeStable: Encode is deterministic and WriteTo emits the same
// bytes.
func TestEncodeStable(t *testing.T) {
	rec, _ := recordOps(t, "canl", 300)
	a, b := rec.Encode(), rec.Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("Encode not deterministic")
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, buf.Bytes()) {
		t.Fatal("WriteTo differs from Encode")
	}
}

// TestSaveLoad: the file round trip preserves identity.
func TestSaveLoad(t *testing.T) {
	rec, _ := recordOps(t, "sp", 500)
	path := t.TempDir() + "/t.trace"
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Decode(rec.Encode())
	if !got.Equal(want) || got.ID() != want.ID() {
		t.Fatal("loaded trace differs from encoded")
	}
}

// TestCompactness: the delta encoding keeps the steady-state cost small —
// well under the 18+ bytes a flat fixed-width record would need.
func TestCompactness(t *testing.T) {
	rec, _ := recordOps(t, "mcf", 10000)
	perOp := float64(len(rec.Encode())) / 10000
	if perOp > 8 {
		t.Errorf("encoding costs %.1f bytes/op, want ≤ 8", perOp)
	}
}

// BenchmarkTraceReplay measures steady-state decode; the 0 allocs/op bar
// is enforced by the -benchmem CI smoke and asserted here via ReportAllocs.
func BenchmarkTraceReplay(b *testing.B) {
	p, err := workload.Get("mcf")
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.NewSource(p, 42)
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecorder("mcf", 1)
	tapped := rec.Tap(0, src)
	for i := 0; i < 4096; i++ {
		tapped.Next()
	}
	tr, err := Decode(rec.Encode())
	if err != nil {
		b.Fatal(err)
	}
	rp := tr.Source(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.Next()
	}
}

package trace

import (
	"bytes"
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

package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTraceDecode feeds arbitrary bytes to Decode, the parser behind
// deact-sim -trace-in, and pins its contract: decoding never panics; an
// accepted trace is in the Recorder's encoding, so replaying every stream
// through a Recorder tap re-encodes the input byte for byte (one op stream,
// one ID); and Load of the same bytes from a file agrees with Decode.
func FuzzTraceDecode(f *testing.F) {
	path := filepath.Join(f.TempDir(), "f.trace")
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lt, lerr := Load(path)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Decode error %v, Load error %v", err, lerr)
		}
		if err != nil {
			return
		}
		if !lt.Equal(tr) || lt.ID() != tr.ID() {
			t.Fatal("Load and Decode disagree")
		}
		rec := NewRecorder(tr.Benchmark(), tr.Streams())
		for i := 0; i < tr.Streams(); i++ {
			src := rec.Tap(i, tr.Source(i))
			for j := uint64(0); j < tr.Ops(i); j++ {
				src.Next()
			}
		}
		if enc := rec.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input does not re-encode to itself:\n got % x\nwant % x", enc, data)
		}
	})
}

package core

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzConfigJSON feeds arbitrary bytes through the decode deact-serve
// applies to a POST /run body — strict JSON over DefaultConfig — and pins
// the boundary contract: decoding never panics; a decoded config either
// passes Validate or fails it with a wrapped ErrInvalidConfig (a 400, never
// a 500); and its canonical encoding decodes back to the same Fingerprint,
// so the store, the Runner and the response agree on run identity. The
// encoding of a valid config is itself valid, so a stored or echoed config
// replays as given.
func FuzzConfigJSON(f *testing.F) {
	canonical, err := json.Marshal(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"Benchmark":"mcf","Scheme":"i-fam"}`))
	f.Add([]byte(`{"Nodes":2,"Tenants":2,"NoisyBenchmark":"canl"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := DefaultConfig()
		if err := json.Unmarshal(body, &cfg); err != nil {
			return
		}
		valid := cfg.Validate()
		if valid != nil && !errors.Is(valid, ErrInvalidConfig) {
			t.Fatalf("Validate error does not wrap ErrInvalidConfig: %v", valid)
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("decoded config does not encode: %v", err)
		}
		var back Config
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		if got, want := back.Fingerprint(), cfg.Fingerprint(); got != want {
			t.Fatalf("fingerprint drifted across JSON round trip: got %s, want %s\n%s", got, want, enc)
		}
		if valid == nil {
			if err := back.Validate(); err != nil {
				t.Fatalf("canonical encoding of a valid config does not validate: %v\n%s", err, enc)
			}
		}
	})
}

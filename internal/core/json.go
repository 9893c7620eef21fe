package core

import (
	"bytes"
	"encoding/json"
	"fmt"

	"deact/internal/node"
)

// ModelVersion names the current simulation semantics. It is bumped
// whenever a modeling change regenerates testdata/golden-report-short.md —
// the same "intentional change" boundary the golden-report CI gate
// enforces — and the persistent result store embeds it in every entry, so
// results computed under older semantics auto-invalidate as cache misses
// instead of being served stale. Pure refactors (byte-identical goldens)
// must not bump it: the stored results are still exact.
const ModelVersion = "one-broker"

// ParseScheme parses a scheme name in any accepted spelling ("deact-n",
// "DeACT-N", "deactn", "deact", ...). It is the inverse of Scheme.Name and
// the parser behind both the cmds' -scheme flags and Scheme's JSON form.
func ParseScheme(s string) (Scheme, error) { return node.ParseScheme(s) }

// MarshalJSON encodes the configuration in its canonical external form:
// every exported field under its Go name, schemes as their lowercase
// canonical names, and derived fields spelled the way Fingerprint spells
// them — so the serve API, the persistent result store and the
// fingerprint walk all see one schema. Fields the scheme never reads are
// encoded as given, not zeroed, so a valid config encodes to a valid one
// that replays (deact-sim -config) exactly; two encodings that differ only
// there share one Fingerprint. Encoding is deterministic (struct field
// order) and round-trips through UnmarshalJSON to a config with an
// identical Fingerprint.
func (c Config) MarshalJSON() ([]byte, error) {
	type plain Config // strips the marshaler; field types keep theirs
	return json.Marshal(plain(c.canonical()))
}

// UnmarshalJSON decodes a canonical config. Unknown fields are rejected —
// in an HTTP API a silently dropped misspelled field would simulate the
// wrong system and cache the result under the wrong identity. Fields
// absent from the JSON keep the values the target already holds, so
// callers decode over DefaultConfig() (as cmd/deact-serve does) to accept
// sparse requests like {"Benchmark":"mcf","Scheme":"i-fam"}.
func (c *Config) UnmarshalJSON(b []byte) error {
	type plain Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	p := (*plain)(c)
	if err := dec.Decode(p); err != nil {
		return fmt.Errorf("core: invalid config JSON: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("core: invalid config JSON: trailing data after config object")
	}
	return nil
}

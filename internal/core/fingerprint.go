package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
)

// Fingerprint returns the canonical run identity of the configuration: a
// hex-encoded 128-bit digest over every exported field, after
// normalization. Two configs that would simulate identically (differing
// only in fields Run derives, like Hierarchy.Cores, or in fields the
// scheme never reads, like E-FAM's STU size) fingerprint equal; any other
// exported-field difference produces a different fingerprint.
//
// The experiment Runner keys its deduplication cache solely on this value,
// so run identity can never drift from the configuration the way a
// hand-written string key could.
func (c Config) Fingerprint() string {
	h := sha256.New()
	writeCanonical(h, "Config", reflect.ValueOf(c.normalized()))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// normalized returns the config's run identity: its canonical spelling
// with every field the scheme's code path never reads zeroed, so neither
// a derived field nor a scheme-irrelevant one can split run identity. The
// result is for hashing only — a zeroed E-FAM STU geometry does not pass
// Validate.
//
// The zeroed fields follow from where each one is read. E-FAM builds
// neither an STU (node.NewInArena: Scheme != EFAM) nor a translator. Only
// the DeACT schemes build the translator and reserve its DRAM
// (Scheme.UsesDeACT), and only DeACT-N reads PairsPerWay (stu.NewInArena,
// OrgDeACTN). TrustReads is read only by stu.verify, which serves the
// DeACT requests; I-FAM's TranslateAndVerify goes straight to decide.
func (c Config) normalized() Config {
	c = c.canonical()
	switch c.Scheme {
	case EFAM:
		c.STUEntries, c.STUWays, c.STULookup = 0, 0, 0
		c.PairsPerWay, c.TrustReads = 0, false
		c.TranslationCacheBytes, c.Outstanding = 0, 0
	case IFAM:
		c.PairsPerWay, c.TrustReads = 0, false
		c.TranslationCacheBytes, c.Outstanding = 0, 0
	case DeACTW:
		c.PairsPerWay = 0
	}
	return c
}

// canonical returns the config with derived fields rewritten to the values
// Run will actually use, so their spellings cannot split or alias run
// identities. Unlike normalized it keeps every field a scheme ignores, so
// the canonical form of a valid config stays valid: it is what
// MarshalJSON encodes, and a stored or echoed config replays as given.
func (c Config) canonical() Config {
	// nodeConfig overwrites the hierarchy's core count with CoresPerNode;
	// a stale Hierarchy.Cores never reaches the simulation.
	c.Hierarchy.Cores = c.CoresPerNode
	// 0 and 1 are two spellings of "single-tenant" (tenantFor treats them
	// identically); normalize so the spellings cannot split run identity in
	// the dedup cache.
	if c.Tenants == 0 {
		c.Tenants = 1
	}
	// "" and CoreInOrder are two spellings of the default timing model;
	// normalize so they cannot split run identity.
	if c.CoreModel == "" {
		c.CoreModel = CoreInOrder
	}
	return c
}

// writeCanonical emits an injective, deterministic encoding of v: every
// exported field in declaration order, tagged with its full path. Walking
// the struct by reflection means a newly added Config field changes the
// fingerprint automatically — it cannot be silently omitted the way a
// hand-maintained field list could. Unsupported field kinds (slices, maps,
// floats — none exist in Config today) panic so the mistake is caught by
// the first Fingerprint call in tests rather than by silent aliasing.
func writeCanonical(w io.Writer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("core: Fingerprint: unexported field %s.%s cannot carry run identity", path, f.Name))
			}
			writeCanonical(w, path+"."+f.Name, v.Field(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s=%d;", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%s=%d;", path, v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%s=%t;", path, v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%s=%q;", path, v.String())
	default:
		panic(fmt.Sprintf("core: Fingerprint: unsupported field kind %s at %s", v.Kind(), path))
	}
}

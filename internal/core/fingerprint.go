package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"sync"
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
	n := c.normalized()
	// The default config encodes to ~1.6KB; a longer encoding spills the
	// buffer to the heap and hashes the same.
	var scratch [4096]byte
	sum := sha256.Sum256(appendCanonical(scratch[:0], &n))
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
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

// TenantCount returns the number of tenants the run tags its traffic
// with: Tenants, where 0 counts as 1. A Result holds this many latency
// sets per node.
func (c Config) TenantCount() int {
	if c.Tenants == 0 {
		return 1
	}
	return c.Tenants
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
	c.Tenants = c.TenantCount()
	// "" and CoreInOrder are two spellings of the default timing model;
	// normalize so they cannot split run identity.
	if c.CoreModel == "" {
		c.CoreModel = CoreInOrder
	}
	return c
}

// fingerprintLeaf is one step of the canonical encoding: the
// "Config.<path>=" prefix of a leaf field, where to find it, and its kind.
type fingerprintLeaf struct {
	prefix string
	index  []int
	kind   reflect.Kind
}

// fingerprintPlan lists Config's leaf fields in declaration order, walking
// nested structs depth-first. It is built once by reflection, so a newly
// added Config field joins the fingerprint automatically: it cannot be
// silently omitted the way a hand-maintained field list could. A field
// that cannot carry run identity — unexported, or of a kind the encoding
// does not spell (slices, maps, floats; none exist in Config today) —
// panics at the first Fingerprint call, so tests catch the mistake rather
// than runs silently aliasing.
var fingerprintPlan = sync.OnceValue(func() []fingerprintLeaf {
	var plan []fingerprintLeaf
	var walk func(t reflect.Type, path string, index []int)
	walk = func(t reflect.Type, path string, index []int) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("core: Fingerprint: unexported field %s.%s cannot carry run identity", path, f.Name))
			}
			fpath, findex := path+"."+f.Name, append(index[:len(index):len(index)], i)
			switch k := f.Type.Kind(); k {
			case reflect.Struct:
				walk(f.Type, fpath, findex)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
				reflect.Bool, reflect.String:
				plan = append(plan, fingerprintLeaf{prefix: fpath + "=", index: findex, kind: k})
			default:
				panic(fmt.Sprintf("core: Fingerprint: unsupported field kind %s at %s", k, fpath))
			}
		}
	}
	walk(reflect.TypeOf(Config{}), "Config", nil)
	return plan
})

// appendCanonical appends the canonical encoding of c to buf: for every
// leaf field, "<path>=<value>;", with integers in decimal, booleans as
// true or false and strings Go-quoted. The encoding is injective (every
// value is tagged with its full path and strings are quoted) and
// deterministic.
func appendCanonical(buf []byte, c *Config) []byte {
	v := reflect.ValueOf(c).Elem()
	for _, leaf := range fingerprintPlan() {
		f := v.FieldByIndex(leaf.index)
		buf = append(buf, leaf.prefix...)
		switch leaf.kind {
		case reflect.Bool:
			buf = strconv.AppendBool(buf, f.Bool())
		case reflect.String:
			buf = strconv.AppendQuote(buf, f.String())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			buf = strconv.AppendUint(buf, f.Uint(), 10)
		default:
			buf = strconv.AppendInt(buf, f.Int(), 10)
		}
		buf = append(buf, ';')
	}
	return buf
}

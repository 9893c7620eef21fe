// Package resultstore is a persistent content-addressed cache of
// simulation results: (model hash, config fingerprint) → core.Result.
//
// core.Config.Fingerprint() already gives every run a canonical content
// address — the experiments Runner dedups in-process on it — but that
// cache dies with the process, so every sweep re-pays simulation cost on
// each invocation. The store persists results behind the same address, so
// repeat traffic (re-running EXPERIMENTS.md, capacity sweeps, CI golden
// passes, deact-serve queries) becomes cache hits.
//
// Properties:
//
//   - Content-addressed and versioned: entries live under a directory
//     derived from core.ModelVersion, so a modeling change (the same
//     boundary that regenerates the golden report) invalidates every
//     stored result automatically — stale-version directories are removed
//     on Open.
//   - Exact: the entry encoding is the canonical JSON of core.Config and
//     core.Result (histogram state included), which round-trips
//     bit-exactly. A warm Get returns bytes identical to the cold run.
//   - Atomic and corruption-tolerant: writes go to a temp file in the
//     store directory and are renamed into place; a reader never observes
//     a partial entry. A truncated, corrupted or foreign file decodes as a
//     cache miss (and is deleted), never as an error or a wrong result.
//   - Bounded: the on-disk footprint is capped (MaxBytes); beyond it the
//     least recently used entry is evicted. Recency is tracked in memory
//     for the store's lifetime and persisted coarsely through file mtimes,
//     so recency survives process restarts at mtime granularity.
//
// A Store is safe for concurrent use by multiple goroutines of one
// process. Concurrent processes sharing a directory are safe against
// torn reads (renames are atomic) but may each hold their own recency
// view.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"deact/internal/core"
	"deact/internal/node"
)

// DefaultMaxBytes caps the store footprint when Open is given 0: enough
// for hundreds of thousands of typical entries (a few KB each), small
// enough to never matter on a development machine.
const DefaultMaxBytes = 256 << 20

// Entry is the on-disk envelope of one stored result. Fingerprint and
// Model bind the payload to its content address and simulation semantics;
// Config is stored alongside the result so the serve API can show what a
// fingerprint stands for.
type Entry struct {
	// Model is the core.ModelVersion hash the result was computed under.
	Model string
	// Fingerprint is Config.Fingerprint(), the entry's content address.
	Fingerprint string
	// Config is the canonical configuration that produced Result.
	Config core.Config
	// Result is the simulation result, exact to the bit.
	Result core.Result
}

// modelHash condenses a model-version tag to the fixed-width directory
// token entries are filed under.
func modelHash(version string) string {
	sum := sha256.Sum256([]byte("deact-model:" + version))
	return hex.EncodeToString(sum[:])[:16]
}

// entryMeta is the in-memory index record of one on-disk entry.
type entryMeta struct {
	size int64
	seq  uint64 // recency: larger = more recently used
}

// Store is a persistent content-addressed result cache rooted at one
// directory. Open it with Open; the zero value is not usable.
type Store struct {
	dir      string // version directory entries live in
	model    string // model-version tag entries must carry
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entryMeta // fingerprint → meta
	total   int64                 // sum of entry sizes
	clock   uint64                // recency counter
}

// Open opens (creating if needed) the store rooted at dir, keyed to the
// current core.ModelVersion. maxBytes bounds the on-disk footprint
// (0 means DefaultMaxBytes). Entry directories of other model versions
// are removed: their results were computed under different simulation
// semantics and can never be served again.
func Open(dir string, maxBytes int64) (*Store, error) {
	return openModel(dir, core.ModelVersion, maxBytes)
}

// openModel is Open with an explicit model tag, so tests can simulate a
// model-version bump without editing the build-time constant.
func openModel(dir, model string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	vdir := filepath.Join(dir, "v-"+modelHash(model))
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	// Auto-invalidation: results under any other model hash were computed
	// by different simulation semantics — drop them wholesale.
	stale, err := filepath.Glob(filepath.Join(dir, "v-*"))
	if err == nil {
		for _, d := range stale {
			if d != vdir {
				os.RemoveAll(d)
			}
		}
	}
	s := &Store{dir: vdir, model: model, maxBytes: maxBytes, entries: map[string]*entryMeta{}}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan indexes the entries already on disk, seeding recency from file
// mtimes (oldest first) so eviction order survives restarts coarsely.
func (s *Store) scan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	type rec struct {
		fp   string
		size int64
		mod  time.Time
	}
	var recs []rec
	for _, e := range ents {
		name := e.Name()
		fp, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() {
			continue // temp files and strangers never enter the index
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{fp: fp, size: info.Size(), mod: info.ModTime()})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mod.Before(recs[j].mod) })
	for _, r := range recs {
		s.clock++
		s.entries[r.fp] = &entryMeta{size: r.size, seq: s.clock}
		s.total += r.size
	}
	return nil
}

// path returns the entry file for a fingerprint.
func (s *Store) path(fp string) string { return filepath.Join(s.dir, fp+".json") }

// Get returns the stored result for cfg, if a valid entry exists. Any
// read or decode failure — missing file, truncated write survivor,
// corrupted bytes, mismatched fingerprint, per-node stats for other than
// the config's number of nodes, a node holding other than its config's
// number of tenant latency sets — is a cache miss, never an error: the
// caller simulates and re-persists.
func (s *Store) Get(cfg core.Config) (core.Result, bool) {
	e, ok := s.Lookup(cfg.Fingerprint())
	return e.Result, ok
}

// Lookup is Get by fingerprint, returning the full envelope (the serve
// API's GET /result/{fingerprint} answers from it).
func (s *Store) Lookup(fp string) (Entry, bool) {
	if !validFingerprint(fp) {
		return Entry{}, false
	}
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.drop(fp) // corrupted: delete so it stops charging the budget
		return Entry{}, false
	}
	// Bind the payload to its address and semantics: a renamed file, a
	// foreign entry or a stale model tag must miss, and the embedded
	// config must actually hash to the address it is filed under.
	if e.Model != s.model || e.Fingerprint != fp || e.Config.Fingerprint() != fp || !runShaped(e) {
		s.drop(fp)
		return Entry{}, false
	}
	s.touch(fp, int64(len(data)))
	return e, true
}

// runShaped reports whether e's result has the shape a run of its config
// produces: one node, STU and translator stats entry per node, and on
// every node exactly one latency set per tenant.
func runShaped(e Entry) bool {
	r, nodes := e.Result, e.Config.Nodes
	if len(r.NodeStats) != nodes || len(r.STUStats) != nodes || len(r.TranslatorStats) != nodes {
		return false
	}
	want := e.Config.TenantCount()
	for _, ns := range e.Result.NodeStats {
		if len(ns.Tenants) != want || len(ns.Tenants) > node.MaxTenants {
			return false
		}
	}
	return true
}

// touch marks fp most recently used (indexing it if scan never saw it)
// and refreshes the file mtime so recency coarsely survives restarts.
func (s *Store) touch(fp string, size int64) {
	s.mu.Lock()
	m := s.entries[fp]
	if m == nil {
		m = &entryMeta{size: size}
		s.entries[fp] = m
		s.total += size
	}
	s.clock++
	m.seq = s.clock
	s.mu.Unlock()
	now := time.Now()
	os.Chtimes(s.path(fp), now, now) // best-effort
}

// drop removes a bad entry from disk and the index.
func (s *Store) drop(fp string) {
	s.mu.Lock()
	if m := s.entries[fp]; m != nil {
		s.total -= m.size
		delete(s.entries, fp)
	}
	s.mu.Unlock()
	os.Remove(s.path(fp))
}

// Put persists res under cfg's fingerprint, atomically (temp file +
// rename: a concurrent reader sees the old entry or the new one, never a
// torn one), then evicts least-recently-used entries until the store fits
// its byte budget again. An entry larger than the whole budget is not
// stored. Persisting is idempotent: re-putting a fingerprint replaces the
// entry with identical bytes.
func (s *Store) Put(cfg core.Config, res core.Result) error {
	return s.PutAs(cfg.Fingerprint(), cfg, res)
}

// PutAs is Put for a caller that already holds cfg's fingerprint, such as
// the experiments Runner, which keys its runs by it: the config is not
// encoded a second time. fp must equal cfg.Fingerprint(); an entry filed
// under any other address fails Lookup's check and is dropped as corrupt.
func (s *Store) PutAs(fp string, cfg core.Config, res core.Result) error {
	e := Entry{Model: s.model, Fingerprint: fp, Config: cfg, Result: res}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", fp, err)
	}
	if int64(len(data)) > s.maxBytes {
		return nil // can't ever fit; storing it would evict everything else
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", fp, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", fp, err)
	}
	if err := os.Rename(tmp.Name(), s.path(fp)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: publish %s: %w", fp, err)
	}

	s.mu.Lock()
	if m := s.entries[fp]; m != nil {
		s.total -= m.size // replaced in place
		delete(s.entries, fp)
	}
	s.clock++
	s.entries[fp] = &entryMeta{size: int64(len(data)), seq: s.clock}
	s.total += int64(len(data))
	var victims []string
	for s.total > s.maxBytes {
		var victim string
		var vm *entryMeta
		for f, m := range s.entries {
			if f != fp && (vm == nil || m.seq < vm.seq) {
				victim, vm = f, m
			}
		}
		if vm == nil {
			break
		}
		s.total -= vm.size
		delete(s.entries, victim)
		victims = append(victims, victim)
	}
	s.mu.Unlock()
	for _, v := range victims {
		os.Remove(s.path(v))
	}
	return nil
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the indexed on-disk footprint.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// validFingerprint gates Lookup input: fingerprints are fixed-width hex,
// and anything else must not be able to escape the store directory or
// collide with temp files.
func validFingerprint(fp string) bool {
	if len(fp) != 32 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

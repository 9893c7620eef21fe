package workload

import (
	"testing"

	"deact/internal/addr"
)

// patternProfile is a small but valid profile the pattern tests share.
func patternProfile(pattern string, degree int) Profile {
	return Profile{
		Name: "pat-test", Suite: "test", FootprintPages: 64,
		MemPer1000: 250, WriteProb: 0.2, StrideBlocks: 2,
		Pattern: pattern, PatternDegree: degree,
	}
}

// TestNewSourceDispatch: NewSource selects the generator the Pattern field
// names, including the skew default for "".
func TestNewSourceDispatch(t *testing.T) {
	cases := []struct {
		pattern string
		want    string
	}{
		{"", "*workload.Generator"},
		{PatternSkew, "*workload.Generator"},
		{PatternPointerChase, "*workload.pointerChase"},
		{PatternGraphFrontier, "*workload.graphFrontier"},
		{PatternStencil, "*workload.stencil"},
	}
	for _, c := range cases {
		src, err := NewSource(patternProfile(c.pattern, 0), 1)
		if err != nil {
			t.Fatalf("NewSource(%q): %v", c.pattern, err)
		}
		if got := typeName(src); got != c.want {
			t.Errorf("NewSource(%q) = %s, want %s", c.pattern, got, c.want)
		}
	}
	if _, err := NewSource(patternProfile("spiral", 0), 1); err == nil {
		t.Error("NewSource with unknown pattern: no error")
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case *Generator:
		return "*workload.Generator"
	case *pointerChase:
		return "*workload.pointerChase"
	case *graphFrontier:
		return "*workload.graphFrontier"
	case *stencil:
		return "*workload.stencil"
	}
	return "?"
}

// TestPatternValidate: the new Profile fields reject bad values.
func TestPatternValidate(t *testing.T) {
	bad := patternProfile("spiral", 0)
	if err := bad.Validate(); err == nil {
		t.Error("unknown pattern validated")
	}
	bad = patternProfile(PatternStencil, -1)
	if err := bad.Validate(); err == nil {
		t.Error("negative degree validated")
	}
	bad = patternProfile(PatternStencil, maxPatternDegree+1)
	if err := bad.Validate(); err == nil {
		t.Error("oversized degree validated")
	}
	if err := patternProfile(PatternStencil, maxPatternDegree).Validate(); err != nil {
		t.Errorf("max degree rejected: %v", err)
	}
}

// TestPatternDeterminism: same (profile, seed) → identical streams;
// different seeds diverge. Also checks the shared Op invariants: addresses
// stay inside the footprint and every op carries a nonzero PC.
func TestPatternDeterminism(t *testing.T) {
	for _, pattern := range []string{PatternPointerChase, PatternGraphFrontier, PatternStencil} {
		p := patternProfile(pattern, 0)
		a, err := NewSource(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewSource(p, 7)
		c, _ := NewSource(p, 8)
		limit := vbase + addr.VAddr(p.FootprintPages*blocksPerPage*addr.BlockSize)
		diverged := false
		for i := 0; i < 2000; i++ {
			oa, ob, oc := a.Next(), b.Next(), c.Next()
			if oa != ob {
				t.Fatalf("%s op %d: same seed diverged: %+v vs %+v", pattern, i, oa, ob)
			}
			if oa != oc {
				diverged = true
			}
			if oa.Addr < vbase || oa.Addr >= limit {
				t.Fatalf("%s op %d: addr %#x outside footprint", pattern, i, oa.Addr)
			}
			if oa.PC == 0 {
				t.Fatalf("%s op %d: zero PC", pattern, i)
			}
		}
		if !diverged {
			t.Errorf("%s: seeds 7 and 8 produced identical streams", pattern)
		}
	}
}

// TestPatternNextAllocs: steady-state generation allocates nothing, the
// same bar the skew Generator meets.
func TestPatternNextAllocs(t *testing.T) {
	for _, pattern := range []string{PatternPointerChase, PatternGraphFrontier, PatternStencil} {
		src, err := NewSource(patternProfile(pattern, 0), 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			src.Next()
		}
		if n := testing.AllocsPerRun(200, func() { src.Next() }); n != 0 {
			t.Errorf("%s: Next allocates %.1f per op, want 0", pattern, n)
		}
	}
}

// TestStencilWriteStream: only the last stencil stream writes, every op is
// non-blocking, and each stream keeps a stable distinct PC.
func TestStencilWriteStream(t *testing.T) {
	const deg = 4
	src, err := NewSource(patternProfile(PatternStencil, deg), 1)
	if err != nil {
		t.Fatal(err)
	}
	pcs := map[uint64]bool{}
	for i := 0; i < 4*deg; i++ {
		op := src.Next()
		if op.Blocking {
			t.Fatalf("op %d: stencil op blocking", i)
		}
		if want := i%deg == deg-1; op.Write != want {
			t.Fatalf("op %d: Write=%v, want %v", i, op.Write, want)
		}
		pcs[op.PC] = true
	}
	if len(pcs) != deg {
		t.Errorf("stencil used %d distinct PCs, want %d", len(pcs), deg)
	}
}

// TestCatalogIsolation: Catalog returns a copy — mutating it must not leak
// into the shared catalog that Get and Suites serve.
func TestCatalogIsolation(t *testing.T) {
	m := Catalog()
	if len(m) == 0 {
		t.Fatal("empty catalog")
	}
	mutated := m["mcf"]
	mutated.FootprintPages = 1
	m["mcf"] = mutated
	delete(m, "canl")
	m["bogus"] = Profile{Name: "bogus"}

	got, err := Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if got.FootprintPages == 1 {
		t.Error("mutating Catalog() result leaked into Get")
	}
	if _, err := Get("canl"); err != nil {
		t.Errorf("delete on Catalog() copy leaked: %v", err)
	}
	if _, err := Get("bogus"); err == nil {
		t.Error("insert on Catalog() copy leaked into Get")
	}
	if got2 := Catalog(); got2["mcf"].FootprintPages == 1 {
		t.Error("second Catalog() call observed first caller's mutation")
	}
}

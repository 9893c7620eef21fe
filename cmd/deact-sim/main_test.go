package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deact/internal/core"
)

// simulate runs the command with args and returns its stdout, failing the
// test on a nonzero exit.
func simulate(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("deact-sim %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestConfigFileMatchesFlags: a -config file holding DefaultConfig with
// {"Scheme":"i-fam","Nodes":2} — the canonical encoding a store entry or
// a POST body carries — prints the same -v output as the flags that spell
// the same configuration.
func TestConfigFileMatchesFlags(t *testing.T) {
	// Overlay the sparse body on the full default, as deact-serve does.
	cfg := core.DefaultConfig()
	if err := json.Unmarshal([]byte(`{"Scheme":"i-fam","Nodes":2}`), &cfg); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile := simulate(t, "-config", path, "-v")
	fromFlags := simulate(t, "-scheme", "i-fam", "-nodes", "2", "-bench", "mcf",
		"-warmup", "120000", "-measure", "120000", "-cores", "4", "-seed", "42",
		"-stu", "1024", "-fabric-ns", "500", "-v")
	if fromFile != fromFlags {
		t.Fatalf("-config output differs from the equivalent flags:\n-config:\n%s\nflags:\n%s", fromFile, fromFlags)
	}
	if !strings.Contains(fromFile, "node 2:") {
		t.Fatalf("-v output lacks the second node:\n%s", fromFile)
	}
}

// TestConfigFileRejectsFieldFlags: -config supplies every field, so a
// per-field flag next to it is a usage error (exit 2), not a silent
// override either way; an unknown field in the file is an error too.
func TestConfigFileRejectsFieldFlags(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := os.WriteFile(path, []byte(`{"Scheme":"e-fam"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-config", path, "-nodes", "2"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-config with -nodes exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-nodes") {
		t.Fatalf("error does not name the conflicting flag: %s", stderr.String())
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"Shceme":"e-fam"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-config", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("misspelled field exited %d, want 1", code)
	}
}

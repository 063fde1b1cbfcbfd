package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interstitial/internal/advisor"
	"interstitial/internal/span"
	"interstitial/internal/tracing"
)

// capturedWarns collects Warn calls so tests can assert write failures
// are reported, not swallowed.
type capturedWarns struct{ msgs []string }

func (c *capturedWarns) Warn(msg string, _ ...any) { c.msgs = append(c.msgs, msg) }

// TestWriteArtifacts drives the post-drain artifact dump end to end:
// a recorder with one finished span and a config map must land as a
// valid span JSONL (ReadJSONLAll round-trips it) and a service manifest
// carrying the config and a metrics snapshot.
func TestWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "adv.spans.jsonl")
	manifestPath := filepath.Join(dir, "adv.manifest.json")

	rec := span.NewRecorder()
	rec.Root("http.plan", 7, 0, 100).End(250)
	srv := advisor.NewServer(advisor.Config{Spans: rec})

	var warns capturedWarns
	writeArtifacts(&warns, srv, rec, spansPath, manifestPath,
		map[string]string{"addr": "localhost:0", "queue": "1"})
	if len(warns.msgs) != 0 {
		t.Fatalf("unexpected warnings: %v", warns.msgs)
	}

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, spans, err := tracing.ReadJSONLAll(f)
	if err != nil {
		t.Fatalf("span JSONL invalid: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "http.plan" {
		t.Fatalf("spans = %+v, want one http.plan", spans)
	}

	mb, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed": 1`, `"addr": "localhost:0"`, `"queue": "1"`, `"metrics"`, `"go": "go`} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("manifest missing %q:\n%s", want, mb)
		}
	}
}

// TestWriteArtifactsReportsFailures: unwritable paths surface as Warn
// calls (one per artifact), never a panic or silent loss.
func TestWriteArtifactsReportsFailures(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "x")
	srv := advisor.NewServer(advisor.Config{})
	var warns capturedWarns
	writeArtifacts(&warns, srv, nil, bad, bad, nil)
	if len(warns.msgs) != 2 {
		t.Fatalf("warnings = %v, want [writing spans, writing manifest]", warns.msgs)
	}
}

// TestFlagConfig: only explicitly set flags enter the manifest config.
// advisord registers its flags inside main, so the test registers its
// own pair on the shared CommandLine set and flips just one.
func TestFlagConfig(t *testing.T) {
	flag.String("cfgtest-set", "", "")
	flag.String("cfgtest-unset", "", "")
	if err := flag.Set("cfgtest-set", "3"); err != nil {
		t.Fatal(err)
	}
	cfg := flagConfig()
	if cfg["cfgtest-set"] != "3" {
		t.Fatalf("config = %v, want cfgtest-set=3", cfg)
	}
	if _, ok := cfg["cfgtest-unset"]; ok {
		t.Fatalf("cfgtest-unset never set but present: %v", cfg)
	}
}

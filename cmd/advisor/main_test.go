package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interstitial/internal/advisor"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestInvalidFlagsExit2(t *testing.T) {
	cases := [][]string{
		{"-machine", "Cray XK7"},
		{"-petacycles", "0"},
		{"-petacycles", "-5"},
		{"-scale", "0"},
		{"-scale", "1.5"},
		{"-cap", "0"},
		{"-cap", "99"},
		{"-seed", "-1"},
		{"-timeout", "-1s"},
		{"-server", "http://localhost:7676"},
		{"-tenant", "alice"},
		{"-retries", "4"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "flag") {
			t.Errorf("run(%v) stderr lacks usage: %q", args, stderr)
		}
	}
}

func TestLocalRunMatchesCoreBytes(t *testing.T) {
	req := advisor.Request{Machine: "Ross", PetaCycles: 2, Scale: 0.05}
	req.Canonicalize()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := advisor.NewCore(advisor.CoreConfig{Ctx: context.Background()}).Plan(req)
	if err != nil {
		t.Fatalf("core Plan: %v", err)
	}

	code, stdout, stderr := runCLI(t, "-machine", "ross", "-petacycles", "2", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr)
	}
	if stdout != want.Text {
		t.Fatalf("CLI bytes differ from core plan:\n%q\nvs\n%q", stdout, want.Text)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-machine", "Ross", "-petacycles", "2", "-scale", "0.05", "-json")
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr)
	}
	var p advisor.Plan
	if err := json.Unmarshal([]byte(stdout), &p); err != nil {
		t.Fatalf("-json output not a plan: %v", err)
	}
	if p.Degraded || len(p.Candidates) == 0 || p.Request.Machine != "Ross" {
		t.Fatalf("unexpected plan: %+v", p)
	}
}

// TestGoldenPlans pins six local plans, one small and one large project
// per machine, to the committed testdata/golden/advisor.txt: each plan's
// CLI text under a header naming its flags. `make golden` rewrites the
// file the same way.
func TestGoldenPlans(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "advisor.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, m := range []string{"Ross", "Blue Mountain", "Blue Pacific"} {
		for _, pc := range []string{"0.5", "10"} {
			fmt.Fprintf(&got, "== advisor -machine '%s' -petacycles %s -scale 0.05\n", m, pc)
			code, stdout, stderr := runCLI(t, "-machine", m, "-petacycles", pc, "-scale", "0.05")
			if code != 0 {
				t.Fatalf("run(%s, %s) = %d, stderr: %s", m, pc, code, stderr)
			}
			got.WriteString(stdout)
		}
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("plans differ from testdata/golden/advisor.txt at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

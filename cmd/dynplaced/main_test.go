package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestBadClusterFlag checks the binary rejects a malformed inventory.
func TestBadClusterFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	out, err := exec.Command("go", "run", ".", "-cluster", "nonsense").CombinedOutput()
	if err == nil {
		t.Fatalf("expected failure, got: %s", out)
	}
	if !strings.Contains(string(out), "-cluster") {
		t.Errorf("error output %q does not mention -cluster", out)
	}
}

// TestFlagsDocumented checks that the flag table in docs/OPERATIONS.md
// names exactly the flags the binary defines, no more and no fewer.
func TestFlagsDocumented(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	// -h prints the usage and exits; its status is not the point here.
	out, _ := exec.Command("go", "run", ".", "-h").CombinedOutput()
	defined := flagNames(t, string(out), `(?m)^  -([a-z-]+)`)
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n### Flags\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no ### Flags section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	documented := flagNames(t, table, "(?m)^\\| `-([a-z-]+)` \\|")
	for name := range defined {
		if !documented[name] {
			t.Errorf("flag -%s is not in the docs/OPERATIONS.md flag table", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("docs/OPERATIONS.md documents -%s, which the binary does not define", name)
		}
	}
	t.Logf("%d flags defined, %d documented", len(defined), len(documented))
}

// flagNames collects the first submatch of every match of pattern in s.
func flagNames(t *testing.T, s, pattern string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(s, -1) {
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatalf("no flags matched %s in:\n%s", pattern, s)
	}
	return names
}

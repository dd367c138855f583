package repro

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestTestdataNotGitIgnored fails when any file under a testdata/ directory
// is git-ignored. An ignored golden exists locally once a test regenerates
// it with -update, but it is never committed, so the test that reads it
// fails on every fresh clone.
func TestTestdataNotGitIgnored(t *testing.T) {
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git not installed")
	}
	if _, err := os.Stat(".git"); err != nil {
		t.Skip("not a git checkout")
	}
	// --directory reports a wholly ignored directory (a build cache, say)
	// as one entry instead of walking it.
	out, err := exec.Command(git, "ls-files", "--others", "--ignored", "--exclude-standard", "--directory").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	for _, f := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasPrefix(f, "testdata/") || strings.Contains(f, "/testdata/") {
			t.Errorf("%s is git-ignored, so a fresh clone lacks it; fix .gitignore", f)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashMatchesGolden: a crash with repair under No Order, and a crash
// under Journaling (replay before fsck), print exactly the committed
// transcripts.
func TestCrashMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"noorder-40s-repair.txt", []string{"-scheme", "noorder", "-at", "40s", "-repair"}},
		{"journaling-40s.txt", []string{"-scheme", "journaling", "-at", "40s"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", c.args, code, stderr.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%v: output differs from testdata/%s:\n%s", c.args, c.golden, got)
		}
	}
}

// TestUsageErrors: an unknown scheme or flag is exit status 2, reported on
// stderr, with nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-scheme", "bogus"}, {"-no-such-flag"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestUsageErrors: a flag -dist cannot honour, an unknown scheme or an
// unknown flag is one line on stderr and exit status 2, before anything
// simulates (nothing reaches stdout).
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the one stderr line
	}{
		{[]string{"-dist", "-seed-bug", "-files", "5", "-schemes", "softupdates", "-budget", "300"}, "-files"},
		{[]string{"-dist", "-seed-bug", "-schemes", "softupdates"}, "-seed-bug"},
		{[]string{"-files", "5", "-dist"}, "cannot be combined with -dist"},
		{[]string{"-schemes", "bogus"}, "bogus"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, c.want) || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mdcheck: ") {
			t.Errorf("%v: stderr = %q, want one \"mdcheck: …\" line containing %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout before failing", c.args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestVerdicts: exit 0 when every verdict is the expected one, 1 when a
// sweep comes up clean where a violation is expected or a scheme cannot be
// checked — on one machine and on the cluster, in text and in -json.
func TestVerdicts(t *testing.T) {
	cases := []struct {
		args []string
		want int
		out  string // substring of stdout
	}{
		{[]string{"-schemes", "conventional", "-files", "6", "-budget", "300"}, 0, "CLEAN (expected)"},
		{[]string{"-schemes", "softupdates", "-seed-bug", "-files", "6", "-budget", "300"}, 0, "VIOLATIONS (expected)"},
		{[]string{"-schemes", "noorder", "-files", "1", "-budget", "1"}, 1, "CLEAN (UNEXPECTED)"},
		{[]string{"-schemes", "nvram", "-files", "2", "-budget", "20"}, 1, "cannot be checked"},
		{[]string{"-dist", "-schemes", "conventional", "-dist-nodes", "2", "-budget", "50"}, 0, "union scan"},
		{[]string{"-dist", "-schemes", "noorder", "-dist-nodes", "2", "-budget", "50", "-json"}, 0, `"scheme": "No Order"`},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.want, stderr.String())
		}
		if !strings.Contains(stdout.String(), c.out) {
			t.Errorf("%v: stdout lacks %q:\n%s", c.args, c.out, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	run([]string{"-schemes", "conventional,noorder", "-files", "4", "-budget", "100", "-json"}, &stdout, &stderr)
	var doc []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil || len(doc) != 2 {
		t.Errorf("-json: %d rows, err %v, want 2 rows of valid JSON:\n%s", len(doc), err, stdout.String())
	}
}

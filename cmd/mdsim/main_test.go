package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaupdate/internal/harness"
)

// TestUsageErrors: a bad name or parameter is one line on stderr and exit
// status 2, decided before any cell simulates — never a goroutine trace
// out of a runner worker.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the one stderr line
	}{
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus" (try -list)`},
		{[]string{"-exp", "scenario-bogus", "-scale", "0.05"}, `unknown experiment "scenario-bogus" (try -list)`},
		{[]string{"-exp", "scenario-mail", "-rate", "0"}, "-rate 0"},
		{[]string{"-exp", "all", "-rate", "-5"}, "-rate -5"},
		{[]string{"-exp", "scenario-mail", "-scenario-nodes", "-1"}, "-scenario-nodes -1"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, c.want) || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "mdsim: ") {
			t.Errorf("%v: stderr = %q, want one \"mdsim: …\" line containing %q", c.args, msg, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout before failing", c.args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 || strings.Contains(stderr.String(), "goroutine") {
		t.Errorf("unknown flag: exit %d, stderr %q", code, stderr.String())
	}
}

// TestList: -list names every exhibit of the registry in order, the paper
// set before `all` and the extensions after it; with no -exp the same
// listing is a usage error.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "  ") {
			names = append(names, strings.TrimSpace(line))
		}
	}
	var want []string
	for i, ex := range harness.Registry(200, 0) {
		if i == len(harness.Paper) {
			want = append(want, "all")
		}
		want = append(want, ex.Name)
	}
	if got := strings.Join(names, " "); got != strings.Join(want, " ") {
		t.Errorf("-list names %q, want %q", got, strings.Join(want, " "))
	}
	listing := stdout.String()
	stdout.Reset()
	if code := run(nil, &stdout, &stderr); code != 2 || stdout.String() != listing {
		t.Errorf("no -exp: exit %d, want 2 and the -list output", code)
	}
}

// TestTraceModesDeterministic: -trace and -optrace are one run of the
// 4-user copy, read through the driver trace or the span recorder. A second
// run of either mode prints and writes the same bytes, and both modes report
// the same mean per-user elapsed time.
func TestTraceModesDeterministic(t *testing.T) {
	dir := t.TempDir()
	csv, spans := filepath.Join(dir, "trace.csv"), filepath.Join(dir, "spans.json")
	var heads []string
	for _, mode := range []struct {
		args []string
		file string
	}{
		{[]string{"-trace", "softupdates", "-csv", csv, "-scale", "0.02"}, csv},
		{[]string{"-optrace", spans, "-optrace-scheme", "softupdates", "-scale", "0.02"}, spans},
	} {
		var outs, files [2][]byte
		for i := range outs {
			var stdout, stderr bytes.Buffer
			if code := run(mode.args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d, stderr %q", mode.args, code, stderr.String())
			}
			raw, err := os.ReadFile(mode.file)
			if err != nil {
				t.Fatal(err)
			}
			outs[i], files[i] = stdout.Bytes(), raw
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("%v: stdout differs between runs:\n%s\n--- second ---\n%s", mode.args, outs[0], outs[1])
		}
		if len(files[0]) == 0 || !bytes.Equal(files[0], files[1]) {
			t.Errorf("%v: %s is empty or differs between runs", mode.args, mode.file)
		}
		head, _, _ := strings.Cut(string(outs[0]), "\n")
		heads = append(heads, head)
	}
	if heads[0] != heads[1] || !strings.Contains(heads[0], "mean per-user elapsed") {
		t.Errorf("the trace modes report different runs: %q vs %q", heads[0], heads[1])
	}
}

// TestExtensionThroughTheOneLoop: an extension exhibit run by name prints
// exactly its Tables, and -json carries them like any paper exhibit's.
func TestExtensionThroughTheOneLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault sweep twice")
	}
	var want bytes.Buffer
	for _, tb := range harness.FaultRecoveryExhibit.Tables(harness.Config{Scale: 1}) {
		tb.Fprint(&want)
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "faults", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("-exp faults stdout differs from FaultRecoveryExhibit.Tables:\n%s\n--- want ---\n%s", stdout.String(), want.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report harness.Report
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Exhibits) != 1 || report.Exhibits[0].Name != "faults" ||
		len(report.Exhibits[0].Tables) != 1 || len(report.Exhibits[0].Tables[0].Rows) != 16 {
		t.Errorf("-json report does not carry the faults exhibit's one 16-row table: %+v", report.Exhibits)
	}
}

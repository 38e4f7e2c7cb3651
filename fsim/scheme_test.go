package fsim_test

import (
	"fmt"
	"strings"
	"testing"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
)

// TestSchemeTable walks the scheme table through the list the commands
// print in their help texts (fsim.SchemeUsage): every name there parses,
// round-trips, and builds a machine that mounts the scheme's ordering.
func TestSchemeTable(t *testing.T) {
	mounts := map[fsim.Scheme]string{
		fsim.NoOrder: "*ordering.NoOrder", fsim.Conventional: "*ordering.Conventional",
		fsim.SchedulerFlag: "*ordering.Flag", fsim.SchedulerChains: "*ordering.Chains",
		fsim.SoftUpdates: "*core.SoftUpdates", fsim.NVRAM: "*nvram.Scheme",
		fsim.Journaling: "*ordering.Journal", fsim.AsyncDurability: "*ordering.Async",
	}
	slugs := strings.Split(fsim.SchemeUsage, "|")
	if len(slugs) != len(fsim.Schemes)+1 { // NVRAM is outside the comparison set
		t.Fatalf("SchemeUsage %q names %d schemes, want %d", fsim.SchemeUsage, len(slugs), len(fsim.Schemes)+1)
	}
	seen := make(map[fsim.Scheme]bool)
	for _, slug := range slugs {
		s, err := fsim.ParseScheme(slug)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s] || s.Slug() != slug {
			t.Errorf("%q parses to %v, whose canonical name is %q (seen before: %v)", slug, s, s.Slug(), seen[s])
		}
		seen[s] = true
		if again, err := fsim.ParseScheme("  " + strings.ToUpper(slug) + " "); err != nil || again != s {
			t.Errorf("ParseScheme ignores neither case nor space for %q: %v, %v", slug, again, err)
		}
		sys, err := fsim.New(conformanceOpts(s))
		if err != nil {
			t.Fatalf("fsim.New(%v): %v", s, err)
		}
		// The mounted ordering is the object the table built: the System's
		// handle where it has one, else of the scheme's type.
		ord := sys.FS.Ordering()
		handle := map[fsim.Scheme]any{fsim.SoftUpdates: sys.Soft, fsim.NVRAM: sys.NV,
			fsim.Journaling: sys.Jnl, fsim.AsyncDurability: sys.Async}[s]
		if got := fmt.Sprintf("%T", ord); got != mounts[s] || (handle != nil && handle != any(ord)) || sys.Opt.Scheme != s {
			t.Errorf("%q mounts a %s as scheme %v, want the table's %s", slug, got, sys.Opt.Scheme, mounts[s])
		}
		sys.Shutdown()
	}
	for _, s := range fsim.Schemes {
		if !seen[s] {
			t.Errorf("%v is in Schemes but not in SchemeUsage", s)
		}
	}
	for alias, want := range map[string]fsim.Scheme{
		"soft": fsim.SoftUpdates, "journal": fsim.Journaling, "asyncdurability": fsim.AsyncDurability,
	} {
		if s, err := fsim.ParseScheme(alias); err != nil || s != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", alias, s, err, want)
		}
	}
	if _, err := fsim.ParseScheme("ext4"); err == nil || !strings.Contains(err.Error(), fsim.SchemeUsage) {
		t.Errorf("unknown scheme: error %v does not list %s", err, fsim.SchemeUsage)
	}
	if _, err := fsim.New(fsim.Options{Scheme: fsim.Scheme(len(slugs))}); err == nil {
		t.Error("fsim.New accepts a scheme number outside the table")
	}
}

// TestRecover: the two schemes whose crash contract holds after recovery
// violate on the raw image somewhere in the sweep and never after
// System.Recover; for the others Recover has nothing to do.
func TestRecover(t *testing.T) {
	for _, tc := range []struct {
		scheme fsim.Scheme
		did    string // what Recover reports having replayed
	}{
		{fsim.Journaling, "journal transactions"},
		{fsim.NVRAM, "NVRAM records"},
		{fsim.SoftUpdates, ""},
	} {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			raw := 0
			for _, at := range conformanceCrashPoints {
				sys, err := fsim.New(conformanceOpts(tc.scheme))
				if err != nil {
					t.Fatal(err)
				}
				churnForever(sys)
				img := sys.Crash(fsim.Time(at))
				raw += len(fsck.Check(img).Violations())
				did := sys.Recover(img)
				if (tc.did == "") != (did == "") || !strings.HasSuffix(did, tc.did) {
					t.Fatalf("crash at %v: Recover reports %q, want a count of %q", at, did, tc.did)
				}
				if v := fsck.Check(img).Violations(); len(v) != 0 {
					t.Fatalf("crash at %v: %d violations after Recover; first: %v", at, len(v), v[0])
				}
			}
			if (raw > 0) != (tc.did != "") {
				t.Errorf("%d violations on the raw images of the sweep", raw)
			}
		})
	}
}

// TestMediaRecovery: the recovery a crash-image sweep can run is the
// table's, and a scheme that recovers from state outside the image says so
// instead of handing the sweep nothing.
func TestMediaRecovery(t *testing.T) {
	for _, s := range append([]fsim.Scheme{fsim.NVRAM}, fsim.Schemes...) {
		replay, err := s.MediaRecovery()
		switch s {
		case fsim.NVRAM:
			if err == nil {
				t.Errorf("%v: a media image cannot be recovered without the NVRAM log, yet no error", s)
			}
		case fsim.Journaling:
			if err != nil || replay == nil {
				t.Errorf("%v: recovery %v, err %v; want the journal replay", s, replay != nil, err)
			}
		default:
			if err != nil || replay != nil {
				t.Errorf("%v: recovery %v, err %v; want none", s, replay != nil, err)
			}
		}
	}
}

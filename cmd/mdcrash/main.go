// Command mdcrash runs a metadata-heavy workload under a chosen ordering
// scheme, pulls the (virtual) plug at a chosen instant, and reports what
// fsck finds — before and, optionally, after repair. It is the paper's
// integrity argument as an interactive tool.
//
//	mdcrash -scheme softupdates -at 40s
//	mdcrash -scheme noorder -at 40s -repair
//	mdcrash -scheme nvram -at 40s          # replays the NVRAM journal first
//	mdcrash -scheme journaling -at 40s     # replays the on-disk journal first
//	mdcrash -scheme softupdates -sweep 10  # ten instants across the run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/workload"
)

func crashOnce(w io.Writer, scheme fsim.Scheme, at fsim.Time, repair bool) (violations int, err error) {
	sys, err := fsim.New(fsim.Options{Scheme: scheme})
	if err != nil {
		return 0, err
	}
	// The deterministic workload: continuous create/write/remove/rename
	// traffic in one directory.
	workload.Churn(sys.Eng, sys.FS, 60, 11, func(i int) int { return 2048 + (i%5)*1500 })
	img := sys.Crash(at)
	if did := sys.Recover(img); did != "" {
		fmt.Fprintf(w, "  %s\n", did)
	}
	rep := fsck.Check(img)
	v, r := rep.Violations(), rep.Repairables()
	fmt.Fprintf(w, "  fsck: %d integrity violations, %d repairable findings "+
		"(%d inodes, %d fragments in use)\n", len(v), len(r),
		rep.AllocatedInodes, rep.ReferencedFrags)
	for i, f := range v {
		if i == 8 {
			fmt.Fprintf(w, "    ... and %d more violations\n", len(v)-8)
			break
		}
		fmt.Fprintf(w, "    VIOLATION %v\n", f)
	}
	if repair {
		actions := fsck.Repair(img)
		after := fsck.Check(img)
		fmt.Fprintf(w, "  repair: %d actions; fsck now reports %d findings\n",
			len(actions), len(after.Findings))
		for i, a := range actions {
			if i == 6 {
				fmt.Fprintf(w, "    ... and %d more actions\n", len(actions)-6)
				break
			}
			fmt.Fprintf(w, "    %s\n", a)
		}
	}
	return len(v), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when a system cannot be built,
// 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdcrash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemeName := fs.String("scheme", "softupdates", "ordering scheme ("+fsim.SchemeUsage+")")
	at := fs.Duration("at", 40*time.Second, "virtual crash instant")
	sweep := fs.Int("sweep", 0, "crash at N instants spread over [at/2, at] instead of once")
	repair := fs.Bool("repair", false, "run fsck repair on the crashed image")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scheme, err := fsim.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(stderr, "mdcrash:", err)
		return 2
	}
	vat, n := fsim.Time(at.Nanoseconds()), max(*sweep, 1)
	totalV := 0
	for i := 1; i <= n; i++ {
		t := vat
		if n > 1 {
			t = vat/2 + vat/2*fsim.Time(i)/fsim.Time(n)
		}
		fmt.Fprintf(stdout, "%s, crash at %v:\n", scheme, t)
		v, err := crashOnce(stdout, scheme, t, *repair)
		if err != nil {
			fmt.Fprintln(stderr, "mdcrash:", err)
			return 1
		}
		totalV += v
	}
	if n > 1 {
		fmt.Fprintf(stdout, "\nsweep total: %d integrity violations across %d crash points\n", totalV, n)
	}
	return 0
}

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
	"os"
	"time"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/workload"
)

func crashOnce(scheme fsim.Scheme, at fsim.Time, repair bool) (violations, repairables int) {
	sys, err := fsim.New(fsim.Options{Scheme: scheme})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdcrash: %v\n", err)
		os.Exit(1)
	}
	// The deterministic workload: continuous create/write/remove/rename
	// traffic in one directory.
	workload.Churn(sys.Eng, sys.FS, 60, 11, func(i int) int { return 2048 + (i%5)*1500 })
	img := sys.Crash(at)
	if did := sys.Recover(img); did != "" {
		fmt.Printf("  %s\n", did)
	}
	rep := fsck.Check(img)
	v, r := rep.Violations(), rep.Repairables()
	fmt.Printf("  fsck: %d integrity violations, %d repairable findings "+
		"(%d inodes, %d fragments in use)\n", len(v), len(r),
		rep.AllocatedInodes, rep.ReferencedFrags)
	for i, f := range v {
		if i == 8 {
			fmt.Printf("    ... and %d more violations\n", len(v)-8)
			break
		}
		fmt.Printf("    VIOLATION %v\n", f)
	}
	if repair {
		actions := fsck.Repair(img)
		after := fsck.Check(img)
		fmt.Printf("  repair: %d actions; fsck now reports %d findings\n",
			len(actions), len(after.Findings))
		for i, a := range actions {
			if i == 6 {
				fmt.Printf("    ... and %d more actions\n", len(actions)-6)
				break
			}
			fmt.Printf("    %s\n", a)
		}
	}
	return len(v), len(r)
}

func main() {
	schemeName := flag.String("scheme", "softupdates", "ordering scheme ("+fsim.SchemeUsage+")")
	at := flag.Duration("at", 40*time.Second, "virtual crash instant")
	sweep := flag.Int("sweep", 0, "crash at N instants spread over [at/2, at] instead of once")
	repair := flag.Bool("repair", false, "run fsck repair on the crashed image")
	flag.Parse()

	scheme, err := fsim.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcrash:", err)
		os.Exit(2)
	}
	vat := fsim.Time(at.Nanoseconds())
	if *sweep <= 1 {
		fmt.Printf("%s, crash at %v:\n", scheme, vat)
		crashOnce(scheme, vat, *repair)
		return
	}
	totalV := 0
	for i := 1; i <= *sweep; i++ {
		t := vat/2 + vat/2*fsim.Time(i)/fsim.Time(*sweep)
		fmt.Printf("%s, crash at %v:\n", scheme, t)
		v, _ := crashOnce(scheme, t, *repair)
		totalV += v
	}
	fmt.Printf("\nsweep total: %d integrity violations across %d crash points\n", totalV, *sweep)
}

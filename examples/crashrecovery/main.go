// Crash recovery: run the same metadata-heavy workload under soft updates
// and under No Order, pull the plug at the same virtual instant, and fsck
// the wreckage. Soft updates leaves only fsck-repairable damage (leaks,
// over-counts); No Order loses structural integrity.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"

	"metaupdate/fsim"
	"metaupdate/internal/fsck"
	"metaupdate/internal/workload"
)

func crashAndCheck(scheme fsim.Scheme, at fsim.Time) {
	sys, err := fsim.New(fsim.Options{Scheme: scheme})
	if err != nil {
		log.Fatal(err)
	}
	// Launch the workload but do NOT wait for it: we are going to crash.
	workload.Churn(sys.Eng, sys.FS, 50, 7, func(int) int { return 4096 })
	img := sys.Crash(at) // power fails mid-flight

	rep := fsck.Check(img)
	fmt.Printf("\n=== %s, crash at %v ===\n", scheme, at)
	fmt.Printf("allocated inodes: %d, referenced fragments: %d\n",
		rep.AllocatedInodes, rep.ReferencedFrags)
	viol := rep.Violations()
	rep2 := rep.Repairables()
	fmt.Printf("integrity violations: %d\n", len(viol))
	for i, f := range viol {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(viol)-5)
			break
		}
		fmt.Printf("  VIOLATION %v\n", f)
	}
	fmt.Printf("fsck-repairable findings: %d\n", len(rep2))
	for i, f := range rep2 {
		if i == 3 {
			fmt.Printf("  ... and %d more\n", len(rep2)-3)
			break
		}
		fmt.Printf("  repairable %v\n", f)
	}
}

func main() {
	// Crash both systems at the same virtual instant, mid-churn. The
	// syncer daemon sweeps 1/30th of the cache per second, so the first
	// delayed writes reach the disk after roughly half a minute — crash
	// after that, while flushing and churn overlap.
	for _, at := range []fsim.Time{40 * fsim.Second, 75 * fsim.Second} {
		crashAndCheck(fsim.SoftUpdates, at)
		crashAndCheck(fsim.NoOrder, at)
	}
	fmt.Println("\nSoft updates survives any crash instant with only repairable damage;")
	fmt.Println("No Order does not — that is the paper's integrity claim, end to end.")
}

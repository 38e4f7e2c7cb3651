package fsck

import (
	"testing"
	"unsafe"
)

// A Baseline holds one istep per block of every file; the block index rode
// in on the padding after kind, and nothing else may ride in for free.
func TestIstepStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(istep{}); n > 32 {
		t.Fatalf("istep is %d bytes, want <= 32", n)
	}
}

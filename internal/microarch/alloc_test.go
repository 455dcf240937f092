//go:build !race

package microarch

import "testing"

// TestNewCoreAllocBound keeps core construction to a handful of flat
// allocations (structs plus one tag and one valid array per cache and the
// TLB). Every profiling trace builds a fresh world of cores, so per-set
// slices coming back would multiply allocations by the set count.
func TestNewCoreAllocBound(t *testing.T) {
	cfg := DefaultCoreConfig()
	const bound = 16
	if got := testing.AllocsPerRun(20, func() { NewCore(0, cfg, nil) }); got > bound {
		t.Errorf("NewCore: %v allocs, want <= %d", got, bound)
	}
}

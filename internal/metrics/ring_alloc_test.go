package metrics_test

import (
	"runtime"
	"testing"

	"dynplace"
	"dynplace/internal/metrics"
)

// TestRingAllocatesAsFilled checks that a ring pays for the values it
// holds, not for its capacity: the daemon's finished-jobs ring has a
// capacity of 1<<16, and building it with ten jobs must stay under
// 64 KB where preallocating every slot would take megabytes.
func TestRingAllocatesAsFilled(t *testing.T) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := metrics.NewRing[dynplace.JobResult](1 << 16)
		for j := 0; j < 10; j++ {
			r.Push(dynplace.JobResult{Name: "job", Completed: true})
		}
		if r.Len() != 10 {
			t.Fatalf("Len = %d, want 10", r.Len())
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("a 1<<16 ring with ten jobs allocates %d bytes, want under 64 KB", per)
	}
}

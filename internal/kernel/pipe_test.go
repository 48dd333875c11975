package kernel

import (
	"runtime"
	"testing"
	"time"
)

// TestPromptPipeOpsFreeTheirTimers: a pipe write or read that completes
// at once must not leave its timeout's timer live. A timer from
// time.After stays in the runtime's timer heap until it fires, about 200
// bytes each, so the live heap would grow with pipe throughput.
func TestPromptPipeOpsFreeTheirTimers(t *testing.T) {
	p := testKernel(t).NewPipe()
	msg := []byte("x")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	const n = 20000
	before := heap()
	for i := 0; i < n; i++ {
		if _, err := p.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Read(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// 2n leaked timers would grow the heap by several MB.
	if grew := int64(heap()) - int64(before); grew > n*32 {
		t.Fatalf("live heap grew %d bytes over %d prompt pipe round trips (%.0f B each): timers outlive their ops",
			grew, n, float64(grew)/n)
	}
}

package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut runs fn(i) for every i in [0, n) across up to GOMAXPROCS
// goroutines, the caller included, and returns once every index is
// done. It is a construction-phase helper for fanning independent
// engine builds: indices are claimed dynamically so uneven per-index
// cost still balances, and cross-worker order is unspecified, so fn
// must write only to index-owned state.
func FanOut(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// drive runs ops 0..n-1 on clients closed-loop callers: a caller takes
// the next op only after its previous one returned, and no op starts
// once until has passed. It returns the samples of the ops that ran, in
// op order.
func drive(clients int, until time.Time, n int, op func(i int) sample) []sample {
	type ran struct {
		i int
		s sample
	}
	per := make([][]ran, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || !time.Now().Before(until) {
					return
				}
				per[c] = append(per[c], ran{int(i), op(int(i))})
			}
		}()
	}
	wg.Wait()
	var all []ran
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	out := make([]sample, len(all))
	for k, r := range all {
		out[k] = r.s
	}
	return out
}

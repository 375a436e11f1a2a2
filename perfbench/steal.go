package main

import (
	"sort"
	"sync"
	"time"
)

// stealEvery is how often the steal clock samples /proc/stat.
const stealEvery = 50 * time.Millisecond

// stealSample is /proc/stat's steal and total CPU jiffies at one instant.
type stealSample struct {
	t            time.Time
	steal, total int64
}

// stealClock samples the machine's CPU-time counters in the background, so
// any span of the run can be given the share of CPU time the hypervisor
// stole from this guest while it lasted.
type stealClock struct {
	mu      sync.Mutex
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

// startStealClock starts sampling; Close stops it.
func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	steal, total, err := cpuStat()
	if err != nil {
		return
	}
	c.mu.Lock()
	c.samples = append(c.samples, stealSample{time.Now(), steal, total})
	c.mu.Unlock()
}

// Close stops the sampler and waits for it to end.
func (c *stealClock) Close() {
	close(c.stop)
	<-c.done
}

// Share is the stolen share of CPU time between t0 and t1, from the samples
// nearest to each; 0 when the clock holds no samples across the span.
func (c *stealClock) Share(t0, t1 time.Time) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a, b := c.nearest(t0), c.nearest(t1)
	if a < 0 || b <= a {
		return 0
	}
	dt := c.samples[b].total - c.samples[a].total
	if dt <= 0 {
		return 0
	}
	return float64(c.samples[b].steal-c.samples[a].steal) / float64(dt)
}

// nearest is the index of the sample closest to t, -1 when there is none.
func (c *stealClock) nearest(t time.Time) int {
	n := len(c.samples)
	if n == 0 {
		return -1
	}
	i := sort.Search(n, func(i int) bool { return !c.samples[i].t.Before(t) })
	if i == n || (i > 0 && t.Sub(c.samples[i-1].t) < c.samples[i].t.Sub(t)) {
		i--
	}
	return i
}

// hostSteal is the run's steal clock, started in main.
var hostSteal *stealClock

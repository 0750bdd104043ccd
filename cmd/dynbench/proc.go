package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// procStatusMB reads one kB-valued field ("VmRSS:", the resident set;
// "VmHWM:", its high-water mark) of a process's /proc status, in MB.
// It returns 0 where /proc is not available or the process is gone.
func procStatusMB(pid int, field string) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, found := strings.CutPrefix(sc.Text(), field)
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssSampler samples a process's resident set every 50 ms while it is
// switched on, until stopped. The high-water mark a Go process reaches
// depends on where its collector's pacing happened to let the heap peak,
// and moved by ±18 % between identical runs; the median of the samples
// is steady.
type rssSampler struct {
	on      atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.on.Store(true)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if !s.on.Load() {
					continue
				}
				if mb := procStatusMB(pid, "VmRSS:"); mb > 0 {
					s.samples = append(s.samples, mb)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns what it saw.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// cleanups holds what must be undone when the harness exits early: a
// child daemon to kill, a state directory to delete. Each is also run
// on the normal path, so they must tolerate running twice.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

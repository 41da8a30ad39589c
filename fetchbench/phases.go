package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// openResult is an open-loop phase: per scheduled fetch, its outcome and
// how late the generator started it.
type openResult struct {
	outcomes []outcome
	due      []time.Time
	lag      []time.Duration
	// overran is set when the phase was cut because the backlog kept
	// growing past its schedule.
	overran bool
}

// maxOverrun bounds how long an open-loop phase may run past its
// schedule before the rest of it is abandoned and the run marked
// invalid.
const maxOverrun = 20 * time.Second

// runOpen drives the schedule with nproc users at a time. Each fetch is
// due at its scheduled time; a worker that is free sleeps until then and
// a worker that is late starts at once. The generator's own lag is how
// late a sleeping worker woke; latencies() charges the rest of the wait
// from the due time.
func (e *env) runOpen(sched []fetchSpec, span time.Duration, timed bool) openResult {
	r := openResult{
		outcomes: make([]outcome, len(sched)),
		due:      make([]time.Time, len(sched)),
		lag:      make([]time.Duration, len(sched)),
	}
	base := time.Now().Add(5 * time.Millisecond)
	cutoff := base.Add(span + maxOverrun)
	var next atomic.Int64
	var overran atomic.Bool
	parallel(runtime.NumCPU(), func(int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(sched) {
				return
			}
			due := base.Add(sched[i].Due)
			r.due[i] = due
			if now := time.Now(); now.Before(due) {
				time.Sleep(due.Sub(now))
				r.lag[i] = time.Since(due)
			} else if now.After(cutoff) {
				overran.Store(true)
				return
			}
			r.outcomes[i] = e.fetch(sched[i], timed)
		}
	})
	r.overran = overran.Load()
	return r
}

// closedResult is a closed-loop phase with nproc users back to back.
type closedResult struct {
	outcomes []outcome
	elapsed  time.Duration
	cpu      time.Duration
	mallocs  uint64
}

// runClosed runs nproc users, each starting its next fetch when the
// previous one ends, for d, drawing fetches from gen.
func (e *env) runClosed(gen *stream, d time.Duration) closedResult {
	var mu sync.Mutex
	workers := runtime.NumCPU()
	per := make([][]outcome, workers)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()
	stop := t0.Add(d)
	parallel(workers, func(w int) {
		for time.Now().Before(stop) {
			mu.Lock()
			f := gen.next()
			mu.Unlock()
			per[w] = append(per[w], e.fetch(f, false))
		}
	})
	r := closedResult{elapsed: time.Since(t0), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	for _, o := range per {
		r.outcomes = append(r.outcomes, o...)
	}
	return r
}

// runWriter re-indexes documents on the churn schedule until stop is
// closed or the schedule ends; it reports the first error.
func (e *env) runWriter(events []writeEvent, stop <-chan struct{}) error {
	base := time.Now()
	for _, ev := range events {
		wait := time.Until(base.Add(ev.At))
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return nil
			}
		}
		select {
		case <-stop:
			return nil
		default:
		}
		if err := e.addVersion(ev.Doc, ev.Version); err != nil {
			return err
		}
	}
	return nil
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

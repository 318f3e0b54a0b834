package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than on
// a runtime timer: an idle Go scheduler waits for timers in epoll with
// millisecond resolution, which would put most of a millisecond of
// generator lateness into every open-loop latency at these rates.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}

// cpuTime returns the user+sys CPU time of the whole process, from
// getrusage(2). The kernel charges a thread only while it runs, so time
// other processes take, and (on a guest kernel with paravirtual steal
// accounting) time the hypervisor gives other guests, does not count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

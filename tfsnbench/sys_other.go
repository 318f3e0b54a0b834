//go:build !linux

package main

import (
	"sync"
	"time"
)

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

var cpuEpoch = sync.OnceValue(time.Now)

// cpuTime falls back to wall-clock time since the first call where
// getrusage(2) is not used.
func cpuTime() time.Duration { return time.Since(cpuEpoch()) }

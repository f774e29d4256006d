//go:build !linux

package main

import "time"

// fsType is only probed on Linux.
func fsType(string) string { return "unknown" }

// cpuTimes is only read on Linux.
func cpuTimes() (steal, total uint64) { return 0, 0 }

// sleeper falls back to time.Sleep off Linux: open-loop pacing is then only
// as precise as the Go timer, and loadgen.late_p99_us shows it.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (*sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*sleeper) close() {}

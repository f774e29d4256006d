package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// hostEnv is the environment record printed with every report, so that a
// shift of the host (fewer CPUs, another Go, a slower or shared disk) can be
// told apart from a change of the code.
type hostEnv struct {
	nproc, gomaxprocs int
	goVersion         string
	walFS             string  // filesystem of the directory the WAL lives in
	deviceFsyncUs     float64 // median raw fsync of a small append there
	steal, total      uint64  // /proc/stat jiffies when the run started
}

// String renders the record, with the share of CPU time the hypervisor
// stole since the run started.
func (e hostEnv) String() string {
	steal, total := cpuTimes()
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d go=%s wal_fs=%s wal.device_fsync_us=%.1f host_steal=%.4f",
		e.nproc, e.gomaxprocs, e.goVersion, e.walFS, e.deviceFsyncUs, ratio(float64(steal-e.steal), float64(total-e.total)))
}

// fsyncProbes is how many raw fsyncs the device probe times.
const fsyncProbes = 64

func probeEnv(dir string) (hostEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return hostEnv{}, err
	}
	us, err := deviceFsync(dir)
	if err != nil {
		return hostEnv{}, fmt.Errorf("fsync probe: %w", err)
	}
	steal, total := cpuTimes()
	return hostEnv{
		steal:         steal,
		total:         total,
		nproc:         runtime.NumCPU(),
		gomaxprocs:    runtime.GOMAXPROCS(0),
		goVersion:     runtime.Version(),
		walFS:         fsType(dir),
		deviceFsyncUs: us,
	}, nil
}

// deviceFsync times fsyncProbes raw fsyncs, each after a 64-byte append —
// the size of a small WAL frame — and returns the median in microseconds.
func deviceFsync(dir string) (float64, error) {
	path := filepath.Join(dir, fmt.Sprintf("fsync-probe-%d", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	frame := make([]byte, 64)
	samples := make([]float64, 0, fsyncProbes)
	for i := 0; i < fsyncProbes; i++ {
		if _, err := f.Write(frame); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		samples = append(samples, micros(time.Since(t0)))
	}
	return median(samples), f.Close()
}

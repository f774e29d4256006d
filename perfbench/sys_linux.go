package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// fsMagic names the filesystems a WAL directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTimes returns the steal and total jiffies of /proc/stat: time the
// hypervisor ran something else while this machine's CPUs had work.
func cpuTimes() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// sleeper parks one goroutine until a deadline with microsecond precision.
// time.Sleep cannot: an idle Go scheduler waits for timers in the network
// poller with millisecond resolution. A non-blocking timerfd is itself a
// pollable descriptor, so reading it parks the goroutine in the poller and
// the kernel wakes it when the timer fires.
type sleeper struct {
	fd  int
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep parks for d (d > 0).
func (s *sleeper) sleep(d time.Duration) error {
	var spec [2]syscall.Timespec // interval, value
	spec[1] = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }

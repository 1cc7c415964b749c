package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits until arrival due times. time.Sleep on an idle Go runtime
// wakes no sooner than a millisecond (the netpoller's wait is rounded up
// to whole milliseconds), far coarser than the gaps between arrivals. A
// non-blocking timerfd read parks the goroutine in the netpoller
// instead, and the poller wakes as soon as the timer fires.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "pacer"), fd: fd}, nil
}

// sleep waits for d; it returns at once when d is not positive.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer is a one-shot Linux timerfd read through Go's network poller:
// a goroutine waiting on it holds no P, and the poller wakes it when the
// timer expires.
type timer struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newTimer() (*timer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes the File pollable.
	return &timer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits for d (relative, > 0).
func (t *timer) sleep(d time.Duration) error {
	// struct itimerspec: it_interval (zero: one-shot), it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := t.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (t *timer) close() { t.f.Close() }

package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// preciseSleeper pins the calling goroutine to its thread and lowers the
// thread's timer slack to 1 µs, so an open-loop sender wakes within a few
// microseconds of a request's due time instead of the runtime timer's ~1 ms.
// Call the returned release when the sender is done.
func preciseSleeper() (sleep func(time.Duration), release func()) {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // failure only costs precision
	sleep = func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep wakes early; the caller re-checks the clock
	}
	release = func() {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 50000, 0) // the kernel default
		runtime.UnlockOSThread()
	}
	return sleep, release
}

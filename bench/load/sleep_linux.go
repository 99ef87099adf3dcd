package load

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerslack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerslack = 29

// preciseSleep pins the calling goroutine to its OS thread and returns a
// sleep that blocks that thread in nanosleep(2) with the kernel's timer slack
// turned off, plus the function that undoes the pinning. time.Sleep is not
// good enough for an open loop at a millisecond period: an idle Go scheduler
// waits in epoll, whose timeout is whole milliseconds, so the median wake-up
// is half a millisecond late (measured here: 546 µs, against 41 µs this way)
// and that lateness would be charged to every publication's latency.
func preciseSleep() (sleep func(time.Duration), release func()) {
	runtime.LockOSThread()
	// The slack is per thread; the default of 50 µs is restored on release.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	sleep = func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return (EINTR) only sends the caller round its loop again
	}
	release = func() {
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0)
		runtime.UnlockOSThread()
	}
	return sleep, release
}

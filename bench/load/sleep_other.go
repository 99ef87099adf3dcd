//go:build !linux

package load

import "time"

// preciseSleep falls back to time.Sleep where nanosleep(2) and the timer
// slack control are not available; see sleep_linux.go for what that costs.
func preciseSleep() (sleep func(time.Duration), release func()) {
	return time.Sleep, func() {}
}

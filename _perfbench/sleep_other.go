//go:build !linux

package main

import "time"

// preciseSleeper falls back to the runtime timer off Linux.
func preciseSleeper() (sleep func(time.Duration), release func()) {
	return time.Sleep, func() {}
}

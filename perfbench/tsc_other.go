//go:build !amd64

package main

import "time"

var epoch = time.Now()

// ticks reads the monotonic clock in nanoseconds where no cheaper counter
// is available.
func ticks() uint64 { return uint64(time.Since(epoch)) }

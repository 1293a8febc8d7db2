package main

// ticks reads the time-stamp counter: a clock read cheap enough to time
// single component calls.
func ticks() uint64

package core

import "context"

// Heartbeat is one liveness sample from the supervised run loop, emitted
// at every supervision-grid point (SuperviseStride cycles). External
// supervisors — the campaign's process-isolation monitor in particular —
// use the arrival rate of heartbeats for stall detection; a simulation
// wedged inside one stride stops producing them, which is exactly the
// signal a liveness monitor needs.
type Heartbeat struct {
	// Cycle is the absolute simulated cycle of the grid point.
	Cycle uint64
}

// SetHeartbeat installs fn to be called at every supervision-grid point
// of subsequent Run / RunContext / RunUntilFinished calls (nil removes
// it). The hook runs on the simulation goroutine between strides: it must
// be fast and must not call back into the system.
func (s *System) SetHeartbeat(fn func(Heartbeat)) { s.heartbeat = fn }

type heartbeatKey struct{}

// WithHeartbeatFunc attaches a heartbeat sink to the context so layers
// that build systems internally (the experiment harness) can forward
// grid-point heartbeats to an enclosing supervisor without new plumbing
// through every call signature.
func WithHeartbeatFunc(ctx context.Context, fn func(Heartbeat)) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, fn)
}

// HeartbeatFuncFromContext returns the sink installed by
// WithHeartbeatFunc, or nil.
func HeartbeatFuncFromContext(ctx context.Context) func(Heartbeat) {
	fn, _ := ctx.Value(heartbeatKey{}).(func(Heartbeat))
	return fn
}

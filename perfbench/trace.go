package main

import (
	"sync/atomic"
	"time"

	"bgpworms/internal/obs"
)

// Traced runs record their spans (name, start, end, parent) on an
// obs.Trace around every layer call, kept in memory and written when
// the run ends. Per-event layer calls do not open a span each: their
// time is summed in a layerClock and attached to the round's span.

// layerSpan is an obs span that also hands back its duration, so a call
// site records the span and the per-layer metric at once. Like obs
// spans it is a no-op under a nil parent (an untraced run).
type layerSpan struct {
	sp    *obs.Span
	begin time.Time
}

func startLayer(parent *obs.Span, name string) layerSpan {
	return layerSpan{sp: parent.Child(name), begin: time.Now()}
}

// end closes the span and returns its duration in seconds.
func (l layerSpan) end() float64 {
	l.sp.End()
	return secondsSince(l.begin)
}

// layerClock sums the time spent inside one layer's per-event calls
// across goroutines. A nil clock (untraced run) costs one branch.
type layerClock struct{ ns atomic.Int64 }

func (c *layerClock) seconds() float64 {
	if c == nil {
		return 0
	}
	return time.Duration(c.ns.Load()).Seconds()
}

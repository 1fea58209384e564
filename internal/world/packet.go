package world

import (
	"time"

	"refer/internal/metrics"
	"refer/internal/trace"
)

// Packet is one sensed-data packet's lifecycle: OpenPacket registers it
// with the run's tracer and collector, Close resolves it on both and then
// runs the caller's continuation. It embeds the trace handle, so systems
// record Hop and FailoverSwitch on it directly. A Packet is a small value;
// the zero Packet must not be closed.
type Packet struct {
	trace.Packet
	w       *World
	created time.Duration
	done    func(ok bool)
}

// SetCollector attaches the run's metrics collector; every packet opened
// afterwards is counted on it. nil (the default) counts nothing.
func (w *World) SetCollector(c *metrics.Collector) { w.collector = c }

// OpenPacket creates a packet at src now. done, when non-nil, runs once
// the packet is closed.
func (w *World) OpenPacket(src NodeID, done func(ok bool)) Packet {
	now := w.Now()
	if w.collector != nil {
		w.collector.Created(now)
	}
	return Packet{Packet: w.tracer.PacketInject(now, int32(src)), w: w, created: now, done: done}
}

// Close resolves the packet now — delivered when ok, dropped otherwise —
// on the tracer and the collector, then runs done. Each packet is closed
// exactly once.
func (p Packet) Close(ok bool) {
	w, now := p.w, p.w.Now()
	if ok {
		p.Deliver(now)
		if w.collector != nil {
			w.collector.Delivered(p.created, now)
		}
	} else {
		p.Drop(now)
		if w.collector != nil {
			w.collector.Dropped(p.created)
		}
	}
	if p.done != nil {
		p.done(ok)
	}
}

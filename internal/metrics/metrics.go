// Package metrics implements the evaluation's three measurements —
// QoS-guaranteed throughput, transmission delay and energy — plus the 95 %
// confidence intervals the paper reports ("All experimental results report
// 95% confidence intervals").
package metrics

import (
	"fmt"
	"math"
	"time"
)

// DefaultQoSDeadline is the paper's real-time cutoff: only packets arriving
// within 0.6 s count toward throughput.
const DefaultQoSDeadline = 600 * time.Millisecond

// Collector accumulates per-packet statistics for one simulation run.
// Only packets created inside the measurement window (after warm-up) are
// counted. The zero value is not ready; use NewCollector.
type Collector struct {
	deadline    time.Duration
	windowStart time.Duration
	windowEnd   time.Duration

	created   int
	delivered int
	qos       int
	dropped   int
	qosDelay  time.Duration
	allDelay  time.Duration
}

// NewCollector creates a collector measuring packets created within
// [windowStart, windowEnd] against the given QoS deadline (0 means
// DefaultQoSDeadline).
func NewCollector(windowStart, windowEnd, deadline time.Duration) *Collector {
	if deadline <= 0 {
		deadline = DefaultQoSDeadline
	}
	return &Collector{
		deadline:    deadline,
		windowStart: windowStart,
		windowEnd:   windowEnd,
	}
}

// inWindow reports whether a packet created at t is measured.
func (c *Collector) inWindow(t time.Duration) bool {
	return t >= c.windowStart && t <= c.windowEnd
}

// Created records a packet created at time t. It returns true when the
// packet falls inside the measurement window; callers may skip Delivered
// bookkeeping otherwise (Delivered tolerates either way).
func (c *Collector) Created(t time.Duration) bool {
	if !c.inWindow(t) {
		return false
	}
	c.created++
	return true
}

// Delivered records the delivery of a packet created at createdAt and
// arriving at arrivedAt.
func (c *Collector) Delivered(createdAt, arrivedAt time.Duration) {
	if !c.inWindow(createdAt) {
		return
	}
	delay := arrivedAt - createdAt
	c.delivered++
	c.allDelay += delay
	if delay <= c.deadline {
		c.qos++
		c.qosDelay += delay
	}
}

// Dropped records a packet created at createdAt that was abandoned.
func (c *Collector) Dropped(createdAt time.Duration) {
	if !c.inWindow(createdAt) {
		return
	}
	c.dropped++
}

// Counts returns counts of packets created / delivered / QoS-delivered /
// dropped within the window.
func (c *Collector) Counts() (created, delivered, qos, dropped int) {
	return c.created, c.delivered, c.qos, c.dropped
}

// Throughput returns QoS-guaranteed packets per second over the window.
func (c *Collector) Throughput() float64 {
	dur := (c.windowEnd - c.windowStart).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(c.qos) / dur
}

// MeanQoSDelay returns the average latency of QoS-guaranteed deliveries
// ("the average latency for the transmission of QoS-guaranteed data").
func (c *Collector) MeanQoSDelay() time.Duration {
	if c.qos == 0 {
		return 0
	}
	return c.qosDelay / time.Duration(c.qos)
}

// MeanDelay returns the average latency over all deliveries.
func (c *Collector) MeanDelay() time.Duration {
	if c.delivered == 0 {
		return 0
	}
	return c.allDelay / time.Duration(c.delivered)
}

// Summary is a set of independent samples of one metric (one per seed) with
// its mean and 95 % confidence half-width.
type Summary struct {
	Samples []float64 `json:"samples"`
	Mean    float64   `json:"mean"`
	CI95    float64   `json:"ci95"`
}

// Summarize computes the mean and 95 % confidence interval half-width of
// the samples using the normal approximation (the paper's convention).
func Summarize(samples []float64) Summary {
	s := Summary{Samples: append([]float64(nil), samples...)}
	n := float64(len(samples))
	if n == 0 {
		return s
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	s.Mean = sum / n
	if len(samples) < 2 {
		return s
	}
	varSum := 0.0
	for _, v := range samples {
		d := v - s.Mean
		varSum += d * d
	}
	stddev := math.Sqrt(varSum / (n - 1))
	s.CI95 = 1.96 * stddev / math.Sqrt(n)
	return s
}

// String implements fmt.Stringer as "mean ± ci".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.CI95)
}

package metrics

import (
	"math"
	"testing"
	"time"
)

func TestCollectorWindow(t *testing.T) {
	c := NewCollector(100*time.Second, 1000*time.Second, 0)
	if c.Created(50 * time.Second) {
		t.Error("warm-up packet counted")
	}
	if !c.Created(100 * time.Second) {
		t.Error("window-start packet not counted")
	}
	if !c.Created(500 * time.Second) {
		t.Error("mid-window packet not counted")
	}
	created, _, _, _ := c.Counts()
	if created != 2 {
		t.Fatalf("created = %d, want 2", created)
	}
	// Deliveries of warm-up packets are ignored too.
	c.Delivered(50*time.Second, 51*time.Second)
	_, delivered, _, _ := c.Counts()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
}

func TestCollectorQoSDeadline(t *testing.T) {
	c := NewCollector(0, 100*time.Second, 0) // default 0.6 s deadline
	c.Created(10 * time.Second)
	c.Delivered(10*time.Second, 10*time.Second+500*time.Millisecond) // QoS
	c.Created(20 * time.Second)
	c.Delivered(20*time.Second, 20*time.Second+700*time.Millisecond) // late
	_, delivered, qos, _ := c.Counts()
	if delivered != 2 || qos != 1 {
		t.Fatalf("delivered=%d qos=%d, want 2,1", delivered, qos)
	}
	if got := c.MeanQoSDelay(); got != 500*time.Millisecond {
		t.Errorf("MeanQoSDelay = %v", got)
	}
	if got := c.MeanDelay(); got != 600*time.Millisecond {
		t.Errorf("MeanDelay = %v", got)
	}
}

func TestCollectorThroughput(t *testing.T) {
	c := NewCollector(0, 10*time.Second, 0)
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		c.Created(at)
		c.Delivered(at, at+10*time.Millisecond)
	}
	if got := c.Throughput(); got != 5.0 {
		t.Fatalf("Throughput = %f, want 5 pkt/s", got)
	}
}

func TestCollectorDropped(t *testing.T) {
	c := NewCollector(0, 10*time.Second, 0)
	c.Created(time.Second)
	c.Dropped(time.Second)
	c.Dropped(20 * time.Second) // out of window
	_, _, _, dropped := c.Counts()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector(0, 0, 0)
	if c.Throughput() != 0 || c.MeanQoSDelay() != 0 || c.MeanDelay() != 0 {
		t.Fatal("empty collector should report zeros")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 12, 8, 10, 10})
	if s.Mean != 10 {
		t.Errorf("Mean = %f, want 10", s.Mean)
	}
	// stddev = sqrt(8/4) = sqrt(2); CI = 1.96·sqrt(2)/sqrt(5).
	want := 1.96 * math.Sqrt2 / math.Sqrt(5)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Errorf("CI95 = %f, want %f", s.CI95, want)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.Mean != 0 || s.CI95 != 0 {
		t.Error("empty summary should be zero")
	}
	s := Summarize([]float64{42})
	if s.Mean != 42 || s.CI95 != 0 {
		t.Errorf("single sample: %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 1, 1})
	if got := s.String(); got != "1.000 ± 0.000" {
		t.Errorf("String = %q", got)
	}
}

func TestSummarizeDoesNotAliasInput(t *testing.T) {
	in := []float64{5, 6}
	s := Summarize(in)
	in[0] = 100
	if s.Samples[0] != 5 {
		t.Error("Summarize aliases its input")
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"metaupdate/internal/sim"
)

// span is one interval recorded by the benchmark around a call into the
// program under test: workload → cell → phase, plus one per
// microbenchmark. Host times are relative to the tracer's origin.
type span struct {
	name, cat  string
	parent     *span
	start, end time.Duration
	vStart     sim.Time
	vEnd       sim.Time
	ev0, ev1   uint64
	children   time.Duration // host time covered by child spans
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced repetitions run.
type tracer struct {
	origin time.Time
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(parent *span, name, cat string, ck clock) *span {
	if t == nil {
		return nil
	}
	s := &span{name: name, cat: cat, parent: parent, start: time.Since(t.origin)}
	if ck != nil {
		s.vStart, s.ev0 = ck()
	}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span, ck clock) {
	if t == nil || s == nil {
		return
	}
	s.end = time.Since(t.origin)
	if ck != nil {
		s.vEnd, s.ev1 = ck()
	}
	if s.parent != nil {
		s.parent.children += s.end - s.start
	}
}

// self is the span's duration minus the part its children cover.
func (s *span) self() time.Duration { return s.end - s.start - s.children }

// writeChrome writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). Timestamps are host microseconds; the
// virtual interval, event count and self time ride in args. Cells run one
// at a time, so one track holds every span and the viewer nests them.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"+
			"\"args\":{\"self_us\":%.3f,\"virt_start_ms\":%.6f,\"virt_end_ms\":%.6f,\"events\":%d}}",
			s.name, s.cat, us(s.start), us(s.end-s.start),
			us(s.self()), s.vStart.Milliseconds(), s.vEnd.Milliseconds(), s.ev1-s.ev0)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

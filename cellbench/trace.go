package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"cellcars/internal/cdr"
)

// span is one traced interval around a call into a layer. Aggregated
// spans (Count > 1) stand for many short calls, such as every Read of
// a stream: Busy is their summed duration and Start/End bound them.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0: root
	Run    string    `json:"run"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Busy   float64   `json:"busy_s"`
	Count  int64     `json:"count"`
}

// tracer keeps spans in memory and writes them when the run ends. It
// is used from one goroutine: the benchmark calls layers sequentially.
type tracer struct {
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: time.Now(), Count: 1})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Now()
	s.Busy = s.End.Sub(s.Start).Seconds()
}

// aggregate records count calls totalling busy between start and end.
func (t *tracer) aggregate(name string, parent int, start, end time.Time, busy time.Duration, count int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start, End: end, Busy: busy.Seconds(), Count: count})
	return len(t.spans)
}

// selfSeconds is the span's busy time minus the part its children
// cover: the union of the single-call children's intervals (shard
// attempts overlap), plus the busy time of aggregated children, whose
// many short calls interleave with nothing else the span does.
func (t *tracer) selfSeconds(id int) float64 {
	s := t.spans[id-1]
	covered := 0.0
	var ivs [][2]time.Time
	for _, c := range t.spans {
		switch {
		case c.Parent != id:
		case c.Count > 1:
			covered += c.Busy
		default:
			ivs = append(ivs, [2]time.Time{c.Start, c.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var end time.Time
	for _, iv := range ivs {
		if iv[0].Before(end) {
			iv[0] = end
		}
		if iv[1].After(iv[0]) {
			covered += iv[1].Sub(iv[0]).Seconds()
			end = iv[1]
		}
	}
	return max(s.Busy-covered, 0)
}

// byName sums busy and self seconds and counts over every span with
// the name.
func (t *tracer) byName(name string) (busy, self float64, count int64) {
	for _, s := range t.spans {
		if s.Name == name {
			busy += s.Busy
			self += t.selfSeconds(s.ID)
			count += s.Count
		}
	}
	return busy, self, count
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callTimer accumulates the time spent inside many short calls into
// one layer, for one aggregated span.
type callTimer struct {
	busy        time.Duration
	calls       int64
	first, last time.Time
}

// since records one call that started at t0 and has just returned.
func (c *callTimer) since(t0 time.Time) {
	c.last = time.Now()
	if c.calls == 0 {
		c.first = t0
	}
	c.busy += c.last.Sub(t0)
	c.calls++
}

// span emits the accumulated calls as one aggregated span.
func (c *callTimer) span(t *tracer, name string, parent int) {
	if c.calls > 0 {
		t.aggregate(name, parent, c.first, c.last, c.busy, c.calls)
	}
}

// timedReader wraps a record stream and times its Read calls — the
// cdr layer's self time, measured from outside.
type timedReader struct {
	callTimer
	r cdr.Reader
}

func (tr *timedReader) Read() (cdr.Record, error) {
	t0 := time.Now()
	rec, err := tr.r.Read()
	tr.since(t0)
	return rec, err
}

// rtProbe samples Go runtime metrics around a pass: bytes allocated,
// the GC's share of CPU, and the peak live heap (sampled every 5ms).
type rtProbe struct {
	start []metrics.Sample
	stop  chan struct{}
	wg    sync.WaitGroup
	peak  uint64 // written by the sampler only; read after wg.Wait
}

type rtStats struct {
	AllocBytes float64
	GCCPUFrac  float64
	HeapPeakMB float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

const rtHeapObjects = "/memory/classes/heap/objects:bytes"

func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startRuntimeProbe() *rtProbe {
	p := &rtProbe{start: readRuntime(rtNames...), stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			p.peak = max(p.peak, readRuntime(rtHeapObjects)[0].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the deltas since start.
func (p *rtProbe) finish() rtStats {
	close(p.stop)
	p.wg.Wait()
	end := readRuntime(rtNames...)
	d := func(i int) float64 { return sampleValue(end[i]) - sampleValue(p.start[i]) }
	// The runtime's CPU classes are estimates refreshed at GC; they
	// are the documented source of the GC's CPU share.
	return rtStats{
		AllocBytes: d(0),
		GCCPUFrac:  ratio(d(1), d(2)),
		HeapPeakMB: float64(p.peak) / (1 << 20),
	}
}

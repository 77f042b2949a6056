// Package query is the serving layer over the measurement pipeline: a
// time-bucketed store of streaming accumulators that ingests CDR
// records continuously and answers the paper's report queries over
// rolling windows.
//
// The store slices the study period into fixed-width buckets (an hour
// by default). Each bucket is a full analysis.Streaming accumulator
// built with TrackHeads, fed only the records whose start falls in its
// slice. A window query left-folds the covered buckets' in-memory
// accumulators with MergeOrdered into a fresh accumulator, so a served
// 24h report is bit-identical to a batch run over the same records
// (the TestMergeOrderedEquivalence property).
//
// Readers are lock-light: the store mutex covers only bucket routing,
// pinning, and the caches; the fold, finalize and marshal run outside
// the lock. A fold pins the buckets it reads, and MergeOrdered only
// reads them; an Add to a pinned bucket first swaps in a private clone
// of its accumulator (copy-on-write), so a fold in flight never sees a
// write. Each window is folded once per epoch — the first request
// folds, concurrent ones wait for it — and every endpoint renders from
// that fold. Folds and responses are cached per epoch and invalidated
// when the live bucket advances, so a response can be stale by at most
// one bucket width — the deliberate trade the bucket model makes.
//
// Durability rides on snapshot.Dir: Checkpoint writes one consistent
// cut holding every bucket's snapshot, Restore warm-starts from the
// newest valid cut, and the daemon replays only the post-watermark
// tail of its input.
package query

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/snapshot"
)

// Window names a rolling span of trailing buckets, e.g. {"24h", 24h}.
type Window struct {
	Name string
	Span time.Duration
}

// DefaultWindows are the rolling spans the paper's operational story
// needs: a day, a week, and the full 90-day study scale.
func DefaultWindows() []Window {
	return []Window{
		{Name: "24h", Span: 24 * time.Hour},
		{Name: "7d", Span: 7 * 24 * time.Hour},
		{Name: "90d", Span: 90 * 24 * time.Hour},
	}
}

// Config assembles a Store.
type Config struct {
	// Ctx is the study configuration every bucket shares.
	Ctx analysis.Context
	// Opts are the analysis options. TrackHeads is forced on (the
	// window fold requires it) and Obs is stripped from the per-bucket
	// accumulators — the store reports through its own query-area
	// metrics instead.
	Opts analysis.RunOptions
	// Bucket is the slice width; 0 means one hour.
	Bucket time.Duration
	// Windows are the queryable rolling spans; empty means
	// DefaultWindows. Every span must be a positive multiple of the
	// bucket width.
	Windows []Window
	// Snapshots, when non-nil, is the rotated cut directory behind
	// Checkpoint and Restore. Nil disables durability.
	Snapshots *snapshot.Dir
	// Obs, when non-nil, receives the store's metrics, including the
	// freshness SLI callback gauges (watermark age, last-cut age, tail
	// replay).
	Obs *obs.Registry
	// Trace, when non-nil, receives compose/cut spans.
	Trace *obs.Trace
}

// Store is the bucketed accumulator set behind the query service.
// Methods are safe for concurrent use.
type Store struct {
	ctx     analysis.Context
	opts    analysis.RunOptions
	width   time.Duration
	maxIdx  int
	windows []Window
	snaps   *snapshot.Dir

	mu        sync.Mutex
	buckets   map[int]*bucket
	live      int // highest bucket index fed so far; -1 cold
	watermark int64
	reports   map[string]cachedReport
	folds     map[string]*windowFold

	// Freshness SLI state. lastAdd is the wall time of the newest
	// ingested record (startedAt before any); restored is the watermark
	// the last warm restart recovered (-1: cold start), so
	// watermark-restored is the tail replayed/ingested since. The
	// lastCut* fields describe the most recent snapshot cut attempt.
	startedAt  time.Time
	lastAdd    time.Time
	restored   int64
	lastCutAt  time.Time
	lastCutSeq uint64
	lastCutDur time.Duration
	lastCutErr string

	met   *storeMetrics
	trace *obs.Trace
}

type bucket struct {
	stream *analysis.Streaming
	// dirty marks records added since encoded was produced.
	dirty   bool
	encoded []byte
	// pinned marks a stream handed to a window fold, which reads it
	// outside the lock: the next Add replaces it with a private clone
	// rather than writing to it.
	pinned bool
}

type cachedReport struct {
	epoch     int
	watermark int64
	body      []byte
}

// windowFold is one window's folded report at one epoch. done closes
// once rep or err is set; watermark is the record count the fold saw.
type windowFold struct {
	epoch     int
	watermark int64
	done      chan struct{}
	rep       *analysis.StreamReport
	err       error
}

type storeMetrics struct {
	records     *obs.Counter
	requests    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	folds       *obs.Counter
	clones      *obs.Counter
	foldSeconds *obs.Timing
	buckets     *obs.Gauge
	epoch       *obs.Gauge
	cuts        *obs.Counter
	cutSeconds  *obs.Timing
	cutFailures *obs.Counter
	restores    *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		return nil
	}
	return &storeMetrics{
		records:     reg.Counter("cellcars_query_records_total"),
		requests:    reg.Counter("cellcars_query_requests_total"),
		cacheHits:   reg.Counter("cellcars_query_cache_hits_total"),
		cacheMisses: reg.Counter("cellcars_query_cache_misses_total"),
		folds:       reg.Counter("cellcars_query_folds_total"),
		clones:      reg.Counter("cellcars_query_bucket_clones_total"),
		foldSeconds: reg.Timing("cellcars_query_fold_seconds"),
		buckets:     reg.Gauge("cellcars_query_buckets"),
		epoch:       reg.Gauge("cellcars_query_epoch"),
		cuts:        reg.Counter("cellcars_query_cuts_total"),
		cutSeconds:  reg.Timing("cellcars_query_cut_seconds"),
		cutFailures: reg.Counter("cellcars_query_cut_failures_total"),
		restores:    reg.Counter("cellcars_query_restores_total"),
	}
}

// New validates the configuration and builds an empty store.
func New(cfg Config) (*Store, error) {
	if cfg.Ctx.Period.Days() <= 0 {
		return nil, errors.New("query: context has no study period")
	}
	width := cfg.Bucket
	if width == 0 {
		width = time.Hour
	}
	if width <= 0 {
		return nil, fmt.Errorf("query: bucket width %v not positive", width)
	}
	span := cfg.Ctx.Period.End().Sub(cfg.Ctx.Period.Start())
	if span%width != 0 {
		return nil, fmt.Errorf("query: bucket width %v does not divide the %v study period", width, span)
	}
	windows := cfg.Windows
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	seen := make(map[string]bool, len(windows))
	for _, w := range windows {
		if w.Name == "" {
			return nil, errors.New("query: window with empty name")
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("query: duplicate window %q", w.Name)
		}
		seen[w.Name] = true
		if w.Span <= 0 || w.Span%width != 0 {
			return nil, fmt.Errorf("query: window %q span %v is not a positive multiple of the %v bucket", w.Name, w.Span, width)
		}
	}
	opts := cfg.Opts
	opts.TrackHeads = true
	opts.Obs = nil
	now := time.Now()
	s := &Store{
		ctx:       cfg.Ctx,
		opts:      opts,
		width:     width,
		maxIdx:    int(span/width) - 1,
		windows:   windows,
		snaps:     cfg.Snapshots,
		buckets:   make(map[int]*bucket),
		live:      -1,
		reports:   make(map[string]cachedReport),
		folds:     make(map[string]*windowFold),
		startedAt: now,
		lastAdd:   now,
		restored:  -1,
		met:       newStoreMetrics(cfg.Obs),
		trace:     cfg.Trace,
	}
	if cfg.Obs != nil {
		// Freshness SLIs as callback gauges: ages advance between
		// scrapes without a ticker, and each scrape sees a consistent
		// point-in-time value read under the store mutex.
		cfg.Obs.GaugeFunc("cellcars_query_watermark_age_seconds", func() float64 {
			return s.WatermarkAge().Seconds()
		})
		cfg.Obs.GaugeFunc("cellcars_query_last_cut_age_seconds", func() float64 {
			f := s.Freshness()
			return f.LastCutAgeSeconds
		})
		cfg.Obs.GaugeFunc("cellcars_query_tail_replay_records", func() float64 {
			return float64(s.TailReplay())
		})
	}
	return s, nil
}

// Windows returns the configured rolling windows.
func (s *Store) Windows() []Window { return append([]Window(nil), s.windows...) }

// BucketWidth returns the bucket slice width.
func (s *Store) BucketWidth() time.Duration { return s.width }

// bucketIndex routes a record start to its bucket. Starts outside the
// study period clamp to the edge buckets; the accumulators there count
// them out-of-period exactly as a batch run would.
func (s *Store) bucketIndex(t time.Time) int {
	d := t.Sub(s.ctx.Period.Start())
	if d < 0 {
		return 0
	}
	idx := int(d / s.width)
	if idx > s.maxIdx {
		return s.maxIdx
	}
	return idx
}

// Add ingests one record into its time bucket. Records must arrive in
// the stream's start order (the Sessionizer contract each bucket
// inherits); a late record into an already-passed bucket is accepted
// and invalidates that bucket's cached encoding. A record into a
// pinned bucket lands in a fresh clone of it.
func (s *Store) Add(r cdr.Record) {
	idx := s.bucketIndex(r.Start)
	s.mu.Lock()
	b := s.buckets[idx]
	if b == nil {
		b = &bucket{stream: analysis.NewStreamingWithOptions(s.ctx, s.opts)}
		s.buckets[idx] = b
		if s.met != nil {
			s.met.buckets.Set(float64(len(s.buckets)))
		}
	}
	if b.pinned {
		s.unpinLocked(b)
	}
	b.stream.Add(r)
	b.dirty = true
	s.watermark++
	s.lastAdd = time.Now()
	if idx > s.live {
		s.live = idx
		if s.met != nil {
			s.met.epoch.Set(float64(idx))
		}
	}
	s.mu.Unlock()
	if s.met != nil {
		s.met.records.Inc()
	}
}

// Watermark returns the records ingested so far — the count a warm
// restart must skip on the re-opened stream.
func (s *Store) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Epoch returns the live (highest fed) bucket index, -1 when cold.
func (s *Store) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// window returns the named window, or false.
func (s *Store) window(name string) (Window, bool) {
	for _, w := range s.windows {
		if w.Name == name {
			return w, true
		}
	}
	return Window{}, false
}

// encodeLocked refreshes one bucket's snapshot encoding. Callers hold
// the store mutex; the returned bytes are immutable thereafter.
func (b *bucket) encodeLocked() ([]byte, error) {
	if !b.dirty && b.encoded != nil {
		return b.encoded, nil
	}
	var buf bytes.Buffer
	if err := b.stream.SnapshotTo(&buf); err != nil {
		return nil, err
	}
	b.encoded = buf.Bytes()
	b.dirty = false
	return b.encoded, nil
}

// unpinLocked gives a pinned bucket a private clone of its stream,
// restored from the bucket's snapshot encoding — the exact path warm
// restarts use — so the Add about to follow cannot write under a fold
// still reading the pinned one. Callers hold the store mutex.
func (s *Store) unpinLocked(b *bucket) {
	enc, err := b.encodeLocked()
	var clone *analysis.Streaming
	if err == nil {
		clone, err = analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewReader(enc))
	}
	if err != nil {
		// The encoding is in memory and was just written under this
		// configuration; only a bug makes either step fail.
		panic(fmt.Sprintf("query: clone pinned bucket: %v", err))
	}
	b.stream = clone
	b.pinned = false
	if s.met != nil {
		s.met.clones.Inc()
	}
}

// pinLocked collects the streams of the buckets a window covers,
// ascending by bucket index, flushing and pinning each so a fold can
// read it outside the lock. Callers hold the store mutex.
func (s *Store) pinLocked(w Window) []*analysis.Streaming {
	if s.live < 0 {
		return nil
	}
	var streams []*analysis.Streaming
	for idx := max(s.live-int(w.Span/s.width)+1, 0); idx <= s.live; idx++ {
		b := s.buckets[idx]
		if b == nil {
			continue
		}
		b.stream.Flush()
		b.pinned = true
		streams = append(streams, b.stream)
	}
	return streams
}

// fold left-folds pinned bucket streams, in time order, into a fresh
// accumulator and returns the finalized window report. The streams are
// only read. An empty window finalizes the fresh accumulator: the zero
// report. span names the request in the compose trace span.
func (s *Store) fold(span string, streams []*analysis.Streaming) (*analysis.StreamReport, error) {
	t0 := time.Now()
	acc := analysis.NewStreamingWithOptions(s.ctx, s.opts)
	for i, b := range streams {
		if err := acc.MergeOrdered(b); err != nil {
			return nil, fmt.Errorf("query: fold window bucket %d: %w", i, err)
		}
	}
	rep := acc.Finalize()
	if s.met != nil {
		s.met.folds.Inc()
		s.met.foldSeconds.Observe(time.Since(t0))
	}
	s.trace.Emit("compose:"+span, time.Since(t0), rep.Records)
	return &rep, nil
}

// foldWindow returns the window's fold at the current epoch, folding
// at most once per (window, epoch): the first caller folds, and
// concurrent callers for the same window wait for its result. span
// names the request that triggers the fold.
func (s *Store) foldWindow(w Window, span string) *windowFold {
	s.mu.Lock()
	if f := s.folds[w.Name]; f != nil && f.epoch == s.live {
		s.mu.Unlock()
		<-f.done
		return f
	}
	f := &windowFold{epoch: s.live, watermark: s.watermark, done: make(chan struct{})}
	s.folds[w.Name] = f
	streams := s.pinLocked(w)
	s.mu.Unlock()

	// Waiters are released even if the fold panics; a failed fold is
	// uncached so the next request retries it.
	defer func() {
		if f.rep == nil {
			if f.err == nil {
				f.err = fmt.Errorf("query: fold of window %q panicked", w.Name)
			}
			s.mu.Lock()
			if s.folds[w.Name] == f {
				delete(s.folds, w.Name)
			}
			s.mu.Unlock()
		}
		close(f.done)
	}()
	f.rep, f.err = s.fold(span, streams)
	return f
}

// ErrUnknownWindow and ErrUnknownEndpoint classify bad queries for the
// HTTP layer's 404s.
var (
	ErrUnknownWindow   = errors.New("query: unknown window")
	ErrUnknownEndpoint = errors.New("query: unknown endpoint")
)

// Report answers one endpoint over one window, serving from the
// (endpoint, window) cache while the live bucket has not advanced and
// otherwise rendering from the window's fold at this epoch. The
// returned bytes are shared and must not be modified.
func (s *Store) Report(endpoint, windowName string) ([]byte, error) {
	body, _, err := s.report(endpoint, windowName)
	return body, err
}

// report is Report, also returning the watermark of the fold the body
// was rendered from.
func (s *Store) report(endpoint, windowName string) ([]byte, int64, error) {
	view, ok := viewFor(endpoint)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownEndpoint, endpoint)
	}
	w, ok := s.window(windowName)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownWindow, windowName)
	}
	if s.met != nil {
		s.met.requests.Inc()
	}
	key := endpoint + "|" + w.Name

	s.mu.Lock()
	if c, ok := s.reports[key]; ok && c.epoch == s.live {
		s.mu.Unlock()
		if s.met != nil {
			s.met.cacheHits.Inc()
		}
		return c.body, c.watermark, nil
	}
	s.mu.Unlock()
	if s.met != nil {
		s.met.cacheMisses.Inc()
	}

	f := s.foldWindow(w, endpoint+"/"+w.Name)
	if f.err != nil {
		return nil, 0, f.err
	}
	body, err := view(f.rep)
	if err != nil {
		return nil, 0, err
	}

	s.mu.Lock()
	// A concurrent Add may have advanced the live bucket while we
	// folded; only cache a response that is still current.
	if f.epoch == s.live {
		s.reports[key] = cachedReport{epoch: f.epoch, watermark: f.watermark, body: body}
	}
	s.mu.Unlock()
	return body, f.watermark, nil
}

// WindowReport folds one window afresh, bypassing both caches, and
// returns the full report value — the programmatic face of
// /report/full. The caller owns the result.
func (s *Store) WindowReport(windowName string) (*analysis.StreamReport, error) {
	w, ok := s.window(windowName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWindow, windowName)
	}
	s.mu.Lock()
	streams := s.pinLocked(w)
	s.mu.Unlock()
	return s.fold("full/"+w.Name, streams)
}

// WatermarkAge returns how long ago the newest record was ingested —
// the primary freshness SLI. Before any record arrives it measures the
// time since the store was built.
func (s *Store) WatermarkAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.lastAdd)
}

// TailReplay returns the records ingested since the last warm restart
// — the post-watermark tail the daemon replayed plus live arrivals. On
// a cold start (no restore) it is the full record count.
func (s *Store) TailReplay() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.restored < 0 {
		return s.watermark
	}
	return s.watermark - s.restored
}

// Freshness is the data-freshness SLI block: how stale the served
// window reports can be and how the durability machinery is keeping
// up. All ages are measured at call time.
type Freshness struct {
	// WatermarkAgeSeconds is the age of the newest ingested record.
	WatermarkAgeSeconds float64 `json:"watermark_age_seconds"`
	// RestoredWatermark is the record count recovered by the last warm
	// restart, -1 on a cold start.
	RestoredWatermark int64 `json:"restored_watermark"`
	// TailReplayRecords counts records ingested past the restored
	// watermark (the replayed tail plus live arrivals).
	TailReplayRecords int64 `json:"tail_replay_records"`
	// LastCutSeq is the sequence of the newest successful snapshot cut,
	// 0 when none has completed.
	LastCutSeq uint64 `json:"last_cut_seq"`
	// LastCutAgeSeconds is the age of that cut, -1 when none yet.
	LastCutAgeSeconds float64 `json:"last_cut_age_seconds"`
	// LastCutSeconds is how long the last successful cut took.
	LastCutSeconds float64 `json:"last_cut_seconds"`
	// LastCutError is the most recent cut failure, cleared by the next
	// success.
	LastCutError string `json:"last_cut_error,omitempty"`
}

// Freshness returns the point-in-time freshness SLIs.
func (s *Store) Freshness() Freshness {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freshnessLocked()
}

func (s *Store) freshnessLocked() Freshness {
	tail := s.watermark
	if s.restored >= 0 {
		tail = s.watermark - s.restored
	}
	f := Freshness{
		WatermarkAgeSeconds: time.Since(s.lastAdd).Seconds(),
		RestoredWatermark:   s.restored,
		TailReplayRecords:   tail,
		LastCutSeq:          s.lastCutSeq,
		LastCutAgeSeconds:   -1,
		LastCutError:        s.lastCutErr,
	}
	if !s.lastCutAt.IsZero() {
		f.LastCutAgeSeconds = time.Since(s.lastCutAt).Seconds()
		f.LastCutSeconds = s.lastCutDur.Seconds()
	}
	return f
}

// Stats is a cheap point-in-time summary for /stats and /readyz.
type Stats struct {
	Records     int64         `json:"records"`
	Buckets     int           `json:"buckets"`
	Epoch       int           `json:"epoch"`
	BucketWidth time.Duration `json:"bucket_width_ns"`
	Windows     []string      `json:"windows"`
	Freshness   Freshness     `json:"freshness"`
}

// Snapshot returns the store's ingest counters and freshness SLIs.
func (s *Store) SnapshotStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.windows))
	for _, w := range s.windows {
		names = append(names, w.Name)
	}
	return Stats{
		Records:     s.watermark,
		Buckets:     len(s.buckets),
		Epoch:       s.live,
		BucketWidth: s.width,
		Windows:     names,
		Freshness:   s.freshnessLocked(),
	}
}

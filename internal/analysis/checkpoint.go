package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
)

// This file is the durable-state layer over the accumulator engine:
// it frames every worker's partial stage state into a versioned
// snapshot file (package snapshot), drives periodic checkpointing of
// Engine and Streaming runs with atomic write-rename and a
// record-offset watermark, and implements the map-reduce workflow —
// per-shard partials (caranalyze -partial) merged and finalized by
// carmerge. Because the accumulators merge by car-disjoint union, a
// resumed or merged run finalizes to a report bit-identical with an
// uninterrupted single-process run.
//
// Snapshot file layout (inside the snapshot container):
//
//	"header"  study configuration + worker count + watermark
//	"worker"  one per worker set: index, ingest counters, stage errors
//	"stage:X" one per live stage of the preceding worker, in
//	          engineStageOrder, payload = the accumulator's SnapshotTo
//
// The header pins everything that must match for two snapshots to be
// mergeable or for a checkpoint to be resumable: study period, time
// zone, rare-day thresholds, clustering seed and cell set, and whether
// the load-dependent stages ran. The watermark is the count of raw
// records consumed; resuming skips exactly that many records of the
// re-opened stream.

// ErrCheckpointStop reports that a checkpointed run stopped on its
// trigger after writing a final checkpoint, rather than reaching the
// end of its input.
var ErrCheckpointStop = errors.New("analysis: run stopped at checkpoint trigger")

// CheckpointConfig configures periodic state snapshots of a run.
type CheckpointConfig struct {
	// Path is the snapshot file. Checkpoints replace it atomically
	// (write to Path+".tmp", fsync, rename). Empty disables writes.
	Path string
	// Every writes a checkpoint after each N raw records consumed.
	// Zero means no periodic checkpoints (trigger-only).
	Every int64
	// Trigger, when it becomes readable, makes the run write a final
	// checkpoint and stop with ErrCheckpointStop — the SIGTERM hook.
	Trigger <-chan struct{}
	// Resume restores state from Path before consuming the input and
	// skips the watermark's worth of records. A missing file starts a
	// fresh run, so a crash-restart loop needs no first-run special
	// case.
	Resume bool
}

// SnapshotHeader is the study configuration a snapshot was produced
// under, plus its progress watermark. Two snapshots are mergeable, and
// a checkpoint resumable, only when the configuration fields agree.
type SnapshotHeader struct {
	PeriodStart     time.Time
	PeriodDays      int
	TZOffsetSeconds int
	Seed            uint64
	RareDays        []int
	BusyCells       []radio.CellKey
	// Workers is the accumulator-set count stored in the file.
	Workers int
	// Watermark counts raw input records consumed when the snapshot
	// was taken.
	Watermark int64
	// HasLoad records whether the load-dependent stages (segments,
	// busy, clusters) were running.
	HasLoad bool
}

// Period reconstructs the study period the snapshot was taken under.
func (h SnapshotHeader) Period() simtime.Period {
	return simtime.NewPeriod(h.PeriodStart, h.PeriodDays)
}

// sameStudy reports whether two snapshots were produced under the same
// study configuration — the precondition for merging them.
func (h SnapshotHeader) sameStudy(o SnapshotHeader) error {
	switch {
	case !h.PeriodStart.Equal(o.PeriodStart) || h.PeriodDays != o.PeriodDays:
		return fmt.Errorf("analysis: study periods differ (%s+%dd vs %s+%dd)",
			h.PeriodStart.Format("2006-01-02"), h.PeriodDays,
			o.PeriodStart.Format("2006-01-02"), o.PeriodDays)
	case h.TZOffsetSeconds != o.TZOffsetSeconds:
		return fmt.Errorf("analysis: time-zone offsets differ (%d vs %d)", h.TZOffsetSeconds, o.TZOffsetSeconds)
	case h.Seed != o.Seed:
		return fmt.Errorf("analysis: clustering seeds differ (%d vs %d)", h.Seed, o.Seed)
	case !slices.Equal(h.RareDays, o.RareDays):
		return fmt.Errorf("analysis: rare-day thresholds differ (%v vs %v)", h.RareDays, o.RareDays)
	case !slices.Equal(h.BusyCells, o.BusyCells):
		return fmt.Errorf("analysis: busy-cell sets differ (%d vs %d cells)", len(h.BusyCells), len(o.BusyCells))
	case h.HasLoad != o.HasLoad:
		return fmt.Errorf("analysis: load-dependent stages ran in one snapshot but not the other")
	}
	return nil
}

func headerFor(ctx Context, opts EngineOptions, workers int, watermark int64) SnapshotHeader {
	return SnapshotHeader{
		PeriodStart:     ctx.Period.Start(),
		PeriodDays:      ctx.Period.Days(),
		TZOffsetSeconds: ctx.TZOffsetSeconds,
		Seed:            opts.Seed,
		RareDays:        opts.RareDays,
		BusyCells:       opts.BusyCells,
		Workers:         workers,
		Watermark:       watermark,
		HasLoad:         ctx.Load != nil,
	}
}

const (
	maxHeaderDays    = 36500
	maxHeaderWorkers = 1 << 12
	maxHeaderRare    = 1024
	maxHeaderCells   = 1 << 20
	// maxStageErrLen truncates stored stage-error messages to fit the
	// codec's string limit.
	maxStageErrLen = 200
)

func encodeHeader(e *snapshot.Encoder, h SnapshotHeader) {
	e.Varint(h.PeriodStart.Unix())
	e.Uvarint(uint64(h.PeriodDays))
	e.Varint(int64(h.TZOffsetSeconds))
	e.Uvarint(h.Seed)
	e.Uvarint(uint64(len(h.RareDays)))
	for _, rd := range h.RareDays {
		e.Varint(int64(rd))
	}
	e.Uvarint(uint64(len(h.BusyCells)))
	for _, c := range h.BusyCells {
		e.Uvarint(uint64(c))
	}
	e.Uvarint(uint64(h.Workers))
	e.Varint(h.Watermark)
	e.Bool(h.HasLoad)
}

func decodeHeader(payload []byte) (SnapshotHeader, error) {
	d := snapshot.NewDecoder(bytes.NewReader(payload))
	var h SnapshotHeader
	h.PeriodStart = time.Unix(d.Varint(), 0).UTC()
	h.PeriodDays = d.Len(maxHeaderDays)
	h.TZOffsetSeconds = int(d.Varint())
	h.Seed = d.Uvarint()
	nr := d.Len(maxHeaderRare)
	for i := 0; i < nr && d.Err() == nil; i++ {
		h.RareDays = append(h.RareDays, int(d.Varint()))
	}
	ncells := d.Len(maxHeaderCells)
	for i := 0; i < ncells && d.Err() == nil; i++ {
		h.BusyCells = append(h.BusyCells, radio.CellKey(d.Uvarint()))
	}
	h.Workers = d.Len(maxHeaderWorkers)
	h.Watermark = d.Varint()
	h.HasLoad = d.Bool()
	if d.Err() != nil {
		return h, d.Err()
	}
	if h.PeriodDays < 1 {
		d.Failf("header period of %d days", h.PeriodDays)
	}
	if h.Workers < 1 {
		d.Failf("header worker count %d", h.Workers)
	}
	if h.Watermark < 0 {
		d.Failf("header watermark %d negative", h.Watermark)
	}
	return h, d.Err()
}

// expectedStages returns the stage set a snapshot's configuration
// enables; restore demands a frame (or a recorded failure) for exactly
// these.
func expectedStages(h SnapshotHeader) map[string]bool {
	exp := map[string]bool{
		"presence": true, "connected": true, "days": true,
		"durations": true, "handovers": true, "carriers": true, "usage": true,
	}
	if h.HasLoad {
		exp["segments"], exp["busy"] = true, true
		if len(h.BusyCells) >= 2 {
			exp["clusters"] = true
		}
	}
	return exp
}

func stageIndex(name string) int {
	for i, s := range engineStageOrder {
		if s == name {
			return i
		}
	}
	return -1
}

// newStageForRestore constructs an empty accumulator for a stage being
// restored. Unlike newAccumSet it does not gate the load-dependent
// stages on ctx.Load: restore followed by Merge/Finalize never calls
// Add, which is the only path that touches the load source — this is
// what lets carmerge finalize partials without re-opening load data.
func newStageForRestore(ctx Context, opts EngineOptions, name string) Accumulator {
	switch name {
	case "presence":
		return newPresenceAcc(ctx.Period)
	case "connected":
		return newConnectedAcc(ctx.Period)
	case "days":
		return newDaysAcc(ctx.Period)
	case "segments":
		return &segmentsAcc{ctx: ctx, rareDays: opts.RareDays, cars: make(map[cdr.CarID]*carSegState)}
	case "busy":
		return &busyAcc{ctx: ctx, busy: make(map[cdr.CarID]time.Duration), total: make(map[cdr.CarID]time.Duration)}
	case "durations":
		return newDurationsAcc()
	case "handovers":
		return newHandoverAcc(true)
	case "carriers":
		return newCarriersAcc()
	case "usage":
		return newUsageAcc(ctx.TZOffsetSeconds)
	case "clusters":
		return newClustersAcc(ctx, opts.BusyCells, opts.Seed)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Snapshot writing

// stageEncode is one stage's share of a snapshot's encode cost,
// summed over worker sets: the wall time spent in SnapshotTo and the
// payload bytes it produced. Slices of it are indexed like
// engineStageOrder.
type stageEncode struct {
	dur   time.Duration
	bytes int64
}

// reportStageEncode records per-stage encode costs under the
// checkpoint encode metrics (cellcars_checkpoint_encode_seconds and
// cellcars_checkpoint_stage_bytes_total, labeled by stage). Every
// payload holds at least one length, so a stage with no bytes had no
// frame in any set and is skipped.
func reportStageEncode(reg *obs.Registry, stages []stageEncode) {
	for j, name := range engineStageOrder {
		if stages[j].bytes == 0 {
			continue
		}
		l := obs.Label{Key: "stage", Value: name}
		reg.Timing("cellcars_checkpoint_encode_seconds", l).Observe(stages[j].dur)
		reg.Counter("cellcars_checkpoint_stage_bytes_total", l).Add(stages[j].bytes)
	}
}

// writeSnapshotStream frames the header and every worker set into w.
// A non-nil stages (one entry per engineStageOrder stage) accumulates
// each stage's encode time and payload size.
func writeSnapshotStream(w io.Writer, hdr SnapshotHeader, sets []*accumSet, stages []stageEncode) error {
	sw := snapshot.NewWriter(w)
	enc := sw.Begin("header")
	encodeHeader(enc, hdr)
	sw.End()
	var buf bytes.Buffer
	for i, set := range sets {
		set.flush()
		enc := sw.Begin("worker")
		enc.Uvarint(uint64(i))
		enc.Varint(set.raw)
		enc.Varint(set.ghosts)
		enc.Varint(set.outOfPeriod)
		enc.Varint(set.accepted)
		enc.Uvarint(uint64(len(set.errs)))
		for _, se := range set.errs {
			msg := se.Err
			if len(msg) > maxStageErrLen {
				msg = msg[:maxStageErrLen]
			}
			enc.String(se.Stage)
			enc.String(msg)
		}
		sw.End()
		for j, name := range engineStageOrder {
			acc := set.stages[j]
			if acc == nil {
				continue
			}
			buf.Reset()
			t0 := time.Now()
			if err := acc.SnapshotTo(&buf); err != nil {
				return fmt.Errorf("analysis: snapshot stage %s: %w", name, err)
			}
			if stages != nil {
				stages[j].dur += time.Since(t0)
				stages[j].bytes += int64(buf.Len())
			}
			sw.RawFrame("stage:"+name, buf.Bytes())
		}
	}
	return sw.Close()
}

// Checkpoint writes retry transient failures with the same policy the
// ExternalSort spill path uses: a bounded number of attempts with
// exponential backoff. A checkpoint landing on flaky storage (NFS
// hiccup, throttled volume) should cost a retry, not the run.
const (
	checkpointRetryAttempts = 3
	checkpointRetryBackoff  = 5 * time.Millisecond
)

// createSnapshotFile, renameSnapshotFile and checkpointSleep are
// stubbed by tests to inject checkpoint I/O faults and skip the
// wall-clock backoff.
var (
	createSnapshotFile = os.Create
	renameSnapshotFile = os.Rename
	checkpointSleep    = time.Sleep
)

// writeSnapshotFile writes a snapshot atomically: the bytes land in
// path+".tmp", are fsynced, and replace path with a rename, so a crash
// mid-checkpoint leaves the previous checkpoint intact. Transient
// failures (cdr.IsTransient) of any step — create, write, sync, rename
// — are retried with exponential backoff; each failed attempt removes
// its own temp file, so retries never leak. A non-nil registry records
// the write count, byte size, wall duration and retries under the
// checkpoint metrics (cellcars_checkpoint_writes_total and kin), and
// the successful attempt's per-stage encode time and payload bytes.
func writeSnapshotFile(path string, hdr SnapshotHeader, sets []*accumSet, reg *obs.Registry) error {
	t0 := time.Now()
	var n int64
	var err error
	var stages []stageEncode
	if reg != nil {
		stages = make([]stageEncode, len(engineStageOrder))
	}
	for attempt := 0; ; attempt++ {
		clear(stages)
		n, err = writeSnapshotAttempt(path, hdr, sets, stages)
		if err == nil || !cdr.IsTransient(err) || attempt >= checkpointRetryAttempts {
			break
		}
		if reg != nil {
			reg.Counter("cellcars_checkpoint_retries_total").Inc()
		}
		checkpointSleep(checkpointRetryBackoff << attempt)
	}
	if err != nil {
		return err
	}
	if reg != nil {
		reg.Counter("cellcars_checkpoint_writes_total").Inc()
		reg.Counter("cellcars_checkpoint_bytes_total").Add(n)
		reg.Timing("cellcars_checkpoint_write_seconds").Observe(time.Since(t0))
		reportStageEncode(reg, stages)
	}
	return nil
}

// writeSnapshotAttempt performs one full write-fsync-rename cycle,
// returning the byte count on success and cleaning up its temp file on
// failure.
func writeSnapshotAttempt(path string, hdr SnapshotHeader, sets []*accumSet, stages []stageEncode) (n int64, err error) {
	tmp := path + ".tmp"
	f, err := createSnapshotFile(tmp)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	cw := &countingWriter{w: f}
	if err = writeSnapshotStream(cw, hdr, sets, stages); err != nil {
		f.Close()
		return 0, err
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = renameSnapshotFile(tmp, path); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// countingWriter counts bytes on their way to the underlying writer,
// for the checkpoint size metric.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ---------------------------------------------------------------------------
// Snapshot reading

// readSnapshotSets parses a snapshot stream and restores its worker
// sets. The config callback sees the decoded header and returns the
// context and options to build accumulators under — derived from the
// header itself (merge path) or validated against a live run's own
// configuration (resume path).
func readSnapshotSets(r io.Reader, config func(SnapshotHeader) (Context, EngineOptions, error)) (SnapshotHeader, []*accumSet, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	name, payload, err := sr.NextFrame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = badSnapf("snapshot has no header frame")
		}
		return SnapshotHeader{}, nil, err
	}
	if name != "header" {
		return SnapshotHeader{}, nil, badSnapf("first frame is %q, not the header", name)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	ctx, opts, err := config(hdr)
	if err != nil {
		return hdr, nil, err
	}

	expected := expectedStages(hdr)
	var sets []*accumSet
	var cur *accumSet
	restored := map[string]bool{}
	finishWorker := func() error {
		if cur == nil {
			return nil
		}
		for name := range expected {
			if !restored[name] && !cur.hasError(name) {
				return badSnapf("worker %d missing stage %s", len(sets)-1, name)
			}
		}
		cur.met.creditRestored(cur, restored)
		return nil
	}
	for {
		name, payload, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return hdr, nil, err
		}
		switch {
		case name == "worker":
			if err := finishWorker(); err != nil {
				return hdr, nil, err
			}
			cur = &accumSet{
				period: ctx.Period,
				stages: make([]Accumulator, len(engineStageOrder)),
				batch:  make([]cdr.Record, 0, accumBatchSize),
			}
			d := snapshot.NewDecoder(bytes.NewReader(payload))
			idx := d.Len(maxHeaderWorkers)
			cur.raw = d.Varint()
			cur.ghosts = d.Varint()
			cur.outOfPeriod = d.Varint()
			cur.accepted = d.Varint()
			nerrs := d.Len(len(engineStageOrder))
			for i := 0; i < nerrs && d.Err() == nil; i++ {
				se := StageError{Stage: d.String(), Err: d.String()}
				if stageIndex(se.Stage) < 0 {
					d.Failf("unknown failed stage %q", se.Stage)
					break
				}
				if cur.hasError(se.Stage) {
					d.Failf("duplicate failed stage %q", se.Stage)
					break
				}
				cur.errs = append(cur.errs, se)
			}
			if d.Err() != nil {
				return hdr, nil, d.Err()
			}
			if idx != len(sets) {
				return hdr, nil, badSnapf("worker frame %d out of order (want %d)", idx, len(sets))
			}
			if cur.ghosts < 0 || cur.outOfPeriod < 0 || cur.accepted < 0 ||
				cur.ghosts+cur.outOfPeriod+cur.accepted != cur.raw {
				return hdr, nil, badSnapf("worker %d counters inconsistent (raw=%d ghosts=%d oop=%d accepted=%d)",
					idx, cur.raw, cur.ghosts, cur.outOfPeriod, cur.accepted)
			}
			// A resumed observed run keeps instrumenting; the restored
			// counts are credited into the shared series once the
			// worker's stage frames are in (see finishWorker).
			cur.met = newSetMetrics(opts.Obs, idx)
			sets = append(sets, cur)
			restored = map[string]bool{}
		case strings.HasPrefix(name, "stage:"):
			stage := strings.TrimPrefix(name, "stage:")
			if cur == nil {
				return hdr, nil, badSnapf("stage frame %q before any worker frame", stage)
			}
			if !expected[stage] {
				return hdr, nil, badSnapf("stage %q not enabled by the snapshot's configuration", stage)
			}
			if restored[stage] {
				return hdr, nil, badSnapf("duplicate stage frame %q", stage)
			}
			if cur.hasError(stage) {
				return hdr, nil, badSnapf("stage %q has both a failure record and a state frame", stage)
			}
			acc := newStageForRestore(ctx, opts, stage)
			if err := acc.RestoreFrom(bytes.NewReader(payload)); err != nil {
				return hdr, nil, fmt.Errorf("analysis: restore stage %s: %w", stage, err)
			}
			cur.stages[stageIndex(stage)] = acc
			restored[stage] = true
		default:
			return hdr, nil, badSnapf("unknown frame %q", name)
		}
	}
	if err := finishWorker(); err != nil {
		return hdr, nil, err
	}
	if len(sets) != hdr.Workers {
		return hdr, nil, badSnapf("snapshot holds %d worker sets, header says %d", len(sets), hdr.Workers)
	}
	var raw int64
	for _, s := range sets {
		raw += s.raw
	}
	if raw != hdr.Watermark {
		return hdr, nil, badSnapf("worker raw counts sum to %d, watermark is %d", raw, hdr.Watermark)
	}
	return hdr, sets, nil
}

func badSnapf(format string, args ...any) error {
	return fmt.Errorf("analysis: "+format+": %w", append(args, snapshot.ErrBadSnapshot)...)
}

// ---------------------------------------------------------------------------
// Partials: the map-reduce workflow

// Partial is the restored partial state of an analysis run — the unit
// carmerge works on. Partials produced under the same study
// configuration over car-disjoint record shards merge into exactly the
// state a single process would have accumulated over the union.
type Partial struct {
	Header SnapshotHeader

	ctx  Context
	opts EngineOptions
	set  *accumSet
}

// ReadPartial restores a partial from a snapshot stream, folding the
// stored worker sets into one. No load source is needed: merging and
// finalizing never re-observe records.
func ReadPartial(r io.Reader) (*Partial, error) {
	var pctx Context
	var popts EngineOptions
	hdr, sets, err := readSnapshotSets(r, func(h SnapshotHeader) (Context, EngineOptions, error) {
		pctx = Context{Period: h.Period(), TZOffsetSeconds: h.TZOffsetSeconds}
		popts = EngineOptions{
			RunOptions: RunOptions{RareDays: h.RareDays, BusyCells: h.BusyCells, Seed: h.Seed},
			Workers:    h.Workers,
		}
		return pctx, popts, nil
	})
	if err != nil {
		return nil, err
	}
	root := sets[0]
	for _, o := range sets[1:] {
		root.merge(o)
	}
	hdr.Workers = 1
	return &Partial{Header: hdr, ctx: pctx, opts: popts, set: root}, nil
}

// ReadPartialFile restores a partial from a snapshot file.
func ReadPartialFile(path string) (*Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadPartial(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Records returns the raw record count the partial has absorbed.
func (p *Partial) Records() int64 { return p.set.raw }

// cars returns the partial's connected-time car map, the exact car set
// every accepted record contributes to — nil when the connected stage
// failed.
func (p *Partial) cars() map[cdr.CarID]int64 {
	acc, _ := p.set.stages[stageIndex("connected")].(*connectedAcc)
	if acc == nil {
		return nil
	}
	return acc.fullSec
}

// SharedCars counts cars present in both partials. ok is false when
// either side's connected stage failed, leaving the overlap unknown.
func (p *Partial) SharedCars(o *Partial) (n int, ok bool) {
	a, b := p.cars(), o.cars()
	if a == nil || b == nil {
		return 0, false
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	for car := range a {
		if _, hit := b[car]; hit {
			n++
		}
	}
	return n, true
}

// Merge folds another partial into p. It refuses partials from a
// different study configuration, and — unless allowOverlap — partials
// whose car sets intersect, since the mergeable-accumulator contract
// requires car-disjoint shards for exact results.
func (p *Partial) Merge(o *Partial, allowOverlap bool) error {
	if err := p.Header.sameStudy(o.Header); err != nil {
		return err
	}
	if !allowOverlap {
		if n, ok := p.SharedCars(o); ok && n > 0 {
			return fmt.Errorf("analysis: partials share %d cars; shard inputs by car, or force with allow-overlap", n)
		}
	}
	p.set.merge(o.set)
	p.Header.Watermark += o.Header.Watermark
	return nil
}

// Finalize computes the merged report. Like every accumulator
// finalize, it is repeatable.
func (p *Partial) Finalize() *Report { return p.set.finalize() }

// SnapshotTo re-serializes the (possibly merged) partial.
func (p *Partial) SnapshotTo(w io.Writer) error {
	return writeSnapshotStream(w, p.Header, []*accumSet{p.set}, nil)
}

// WriteSnapshot writes the partial to a file atomically.
func (p *Partial) WriteSnapshot(path string) error {
	return writeSnapshotFile(path, p.Header, []*accumSet{p.set}, p.opts.Obs)
}

// ---------------------------------------------------------------------------
// Streaming checkpointing

// Watermark returns the raw record count consumed so far — the number
// of records a resumed run must skip on the re-opened stream.
func (s *Streaming) Watermark() int64 { return s.set.raw }

func (s *Streaming) header() SnapshotHeader {
	return headerFor(s.ctx, s.opts, 1, s.set.raw)
}

// SnapshotTo serializes the accumulator's full partial state,
// producing a stream readable by both ResumeStreaming and ReadPartial.
func (s *Streaming) SnapshotTo(w io.Writer) error {
	return writeSnapshotStream(w, s.header(), []*accumSet{s.set}, nil)
}

// WriteSnapshot writes the state to a file atomically.
func (s *Streaming) WriteSnapshot(path string) error {
	return writeSnapshotFile(path, s.header(), []*accumSet{s.set}, s.opts.Obs)
}

// RestoreStreaming restores a streaming accumulator from a snapshot
// stream written under the same context and options — ResumeStreaming
// without the file handling, for callers (the query service) that keep
// snapshots inside larger containers. The caller must advance its
// input past the restored Watermark (cdr.Skip) before feeding more
// records.
func RestoreStreaming(ctx Context, opts RunOptions, r io.Reader) (*Streaming, error) {
	s := NewStreamingWithOptions(ctx, opts)
	want := s.header()
	_, sets, err := readSnapshotSets(r, func(h SnapshotHeader) (Context, EngineOptions, error) {
		if err := want.sameStudy(h); err != nil {
			return Context{}, EngineOptions{}, err
		}
		if h.Workers != 1 {
			return Context{}, EngineOptions{}, fmt.Errorf("analysis: snapshot holds %d worker sets; streaming resume needs 1", h.Workers)
		}
		return s.ctx, s.opts, nil
	})
	if err != nil {
		return nil, err
	}
	s.set = sets[0]
	return s, nil
}

// ResumeStreaming restores a streaming accumulator from a snapshot
// file written under the same context and options. The caller must
// advance its input past the restored Watermark (cdr.Skip) before
// feeding more records.
func ResumeStreaming(ctx Context, opts RunOptions, path string) (*Streaming, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := RestoreStreaming(ctx, opts, f)
	if err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return s, nil
}

// AddAllCheckpointed drains a reader like AddAll, writing a state
// snapshot to cfg.Path every cfg.Every raw records. When cfg.Trigger
// fires, it writes a final checkpoint and stops with ErrCheckpointStop.
// With cfg.Resume, state is restored from cfg.Path first (when the file
// exists) and the watermark's worth of records is skipped.
func (s *Streaming) AddAllCheckpointed(r cdr.Reader, cfg CheckpointConfig) error {
	if cfg.Resume && cfg.Path != "" {
		if _, err := os.Stat(cfg.Path); err == nil {
			resumed, err := ResumeStreaming(s.ctx, s.opts.RunOptions, cfg.Path)
			if err != nil {
				return err
			}
			s.set = resumed.set
			if err := cdr.Skip(r, s.Watermark()); err != nil {
				return err
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	for {
		if cfg.Trigger != nil && s.set.raw&1023 == 0 {
			select {
			case <-cfg.Trigger:
				if cfg.Path != "" {
					if err := s.WriteSnapshot(cfg.Path); err != nil {
						return err
					}
				}
				return ErrCheckpointStop
			default:
			}
		}
		rec, err := r.Read()
		if err != nil {
			s.set.flush()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		s.set.add(rec)
		if cfg.Every > 0 && cfg.Path != "" && s.set.raw%cfg.Every == 0 {
			if err := s.WriteSnapshot(cfg.Path); err != nil {
				return err
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Engine checkpointing

// workerMsg is one dispatch to an engine worker: a record batch, or a
// barrier carrying an ack channel. After acking a barrier the worker
// does not touch its accumulator set until the next message arrives,
// which is what lets the dispatcher snapshot all sets race-free.
type workerMsg struct {
	batch []cdr.Record
	ack   chan<- struct{}
}

// engineDispatchBatch is the per-shard batch size of the checkpointing
// dispatcher.
const engineDispatchBatch = 512

func (e *Engine) checkpointHeader(watermark int64) SnapshotHeader {
	return headerFor(e.ctx, e.opts, e.opts.Workers, watermark)
}

// RunReaderCheckpointed is RunReader with periodic checkpointing: the
// dispatcher reads the stream, shards records by car across workers,
// and at each checkpoint runs an ack barrier so every worker's set is
// quiescent, then writes all partial state atomically to cfg.Path. On
// cfg.Trigger it writes a final checkpoint and returns
// ErrCheckpointStop. With cfg.Resume it restores from cfg.Path (same
// configuration and worker count required) and skips the watermark's
// worth of records; a resumed run's final report is bit-identical with
// an uninterrupted one.
func (e *Engine) RunReaderCheckpointed(r cdr.Reader, cfg CheckpointConfig) (*Report, error) {
	n := e.opts.Workers
	var sets []*accumSet
	var read int64
	if cfg.Resume && cfg.Path != "" {
		switch _, err := os.Stat(cfg.Path); {
		case err == nil:
			f, err := os.Open(cfg.Path)
			if err != nil {
				return nil, err
			}
			want := e.checkpointHeader(0)
			hdr, restored, err := readSnapshotSets(f, func(h SnapshotHeader) (Context, EngineOptions, error) {
				if err := want.sameStudy(h); err != nil {
					return Context{}, EngineOptions{}, err
				}
				if h.Workers != n {
					return Context{}, EngineOptions{}, fmt.Errorf("analysis: checkpoint has %d workers, run has %d", h.Workers, n)
				}
				return e.ctx, e.opts, nil
			})
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("resume %s: %w", cfg.Path, err)
			}
			sets = restored
			read = hdr.Watermark
			if err := cdr.Skip(r, read); err != nil {
				return nil, err
			}
		case errors.Is(err, os.ErrNotExist):
			// Fresh run below.
		default:
			return nil, err
		}
	}
	if sets == nil {
		sets = make([]*accumSet, n)
		for i := range sets {
			sets[i] = newAccumSet(e.ctx, e.opts, i)
		}
	}

	chans := make([]chan workerMsg, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		chans[i] = make(chan workerMsg, 4)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for msg := range chans[i] {
				for _, rec := range msg.batch {
					sets[i].add(rec)
				}
				if msg.ack != nil {
					msg.ack <- struct{}{}
				}
			}
		}(i)
	}
	stop := func() {
		for i := range chans {
			close(chans[i])
		}
		wg.Wait()
	}

	bufs := make([][]cdr.Record, n)
	flushShard := func(i int) {
		if len(bufs[i]) == 0 {
			return
		}
		chans[i] <- workerMsg{batch: bufs[i]}
		bufs[i] = nil
	}
	checkpoint := func() error {
		ack := make(chan struct{}, n)
		for i := 0; i < n; i++ {
			flushShard(i)
			chans[i] <- workerMsg{ack: ack}
		}
		for i := 0; i < n; i++ {
			<-ack
		}
		// Workers are parked on their channels; the sets are quiescent
		// until the next dispatch, so writing them here is race-free.
		return writeSnapshotFile(cfg.Path, e.checkpointHeader(read), sets, e.opts.Obs)
	}

	for {
		if cfg.Trigger != nil && read&1023 == 0 {
			select {
			case <-cfg.Trigger:
				if cfg.Path != "" {
					if err := checkpoint(); err != nil {
						stop()
						return nil, err
					}
				}
				stop()
				return nil, ErrCheckpointStop
			default:
			}
		}
		rec, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			stop()
			return nil, err
		}
		read++
		shard := cdr.ShardOfCar(rec.Car, n)
		bufs[shard] = append(bufs[shard], rec)
		if len(bufs[shard]) >= engineDispatchBatch {
			flushShard(shard)
		}
		if cfg.Every > 0 && cfg.Path != "" && read%cfg.Every == 0 {
			if err := checkpoint(); err != nil {
				stop()
				return nil, err
			}
		}
	}
	for i := range bufs {
		flushShard(i)
	}
	stop()
	return e.merge(sets), nil
}

package analysis

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cellcars/internal/cdr"
	"cellcars/internal/clean"
	"cellcars/internal/obs"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
	"cellcars/internal/stats"
	"cellcars/internal/synth"
)

// The checkpoint encoders read open sessions and stashed heads in
// place and sort the duration sample through a pooled buffer. This
// file keeps the earlier encoders as the reference — every open
// session copied out through Sessionizer.Snapshot, heads copied into a
// slice, the sample copied and sort.Slice'd — and requires checkpoint
// files and Streaming snapshots to match them byte for byte.

// refEncodeSessions writes still-open sessions as their span lists;
// sessions must be the output of Sessionizer.Snapshot.
func refEncodeSessions(e *snapshot.Encoder, sessions []clean.Session) {
	e.Uvarint(uint64(len(sessions)))
	for i := range sessions {
		s := &sessions[i]
		e.Uvarint(uint64(s.Car))
		e.Uvarint(uint64(len(s.Spans)))
		for _, sp := range s.Spans {
			e.Uvarint(uint64(sp.Cell))
			e.Varint(sp.Start.UnixNano())
			e.Varint(int64(sp.Duration))
		}
	}
}

func refEncodeHeads(e *snapshot.Encoder, trackHeads bool, heads map[cdr.CarID]*clean.Session) {
	e.Bool(trackHeads)
	if !trackHeads {
		return
	}
	out := make([]clean.Session, 0, len(heads))
	for _, car := range sortedKeys(heads) {
		out = append(out, *heads[car])
	}
	refEncodeSessions(e, out)
}

// refSampleItem mirrors the sample's unexported heap entry.
type refSampleItem struct {
	key uint64
	val float64
}

// refSampleSnapshot is Sample.Snapshot as a copy of the heap sorted
// with sort.Slice. The heap is unexported, so it is read by reflection.
func refSampleSnapshot(e *snapshot.Encoder, s *stats.Sample) {
	v := reflect.ValueOf(s).Elem()
	heap := v.FieldByName("items")
	items := make([]refSampleItem, heap.Len())
	for i := range items {
		it := heap.Index(i)
		items[i] = refSampleItem{key: it.FieldByName("key").Uint(), val: it.FieldByName("val").Float()}
	}
	e.Uvarint(uint64(v.FieldByName("k").Int()))
	e.Varint(v.FieldByName("n").Int())
	sort.Slice(items, func(i, j int) bool {
		if items[i].key != items[j].key {
			return items[i].key < items[j].key
		}
		return items[i].val < items[j].val
	})
	e.Uvarint(uint64(len(items)))
	for _, it := range items {
		e.Uvarint(it.key)
		e.F64(it.val)
	}
}

// refSnapshotTo encodes one stage with the reference encoders; stages
// whose encoders did not change use their own SnapshotTo.
func refSnapshotTo(acc Accumulator, w io.Writer) error {
	e := snapshot.NewEncoder(w)
	switch a := acc.(type) {
	case *durationsAcc:
		a.hist.Snapshot(e)
		refSampleSnapshot(e, a.sample)
		e.Varint(a.n)
		e.Varint(a.fullSec)
		e.Varint(a.fullNano)
		e.Varint(a.truncSec)
		e.Varint(a.truncNano)
	case *handoverAcc:
		refEncodeSessions(e, a.z.Snapshot())
		refEncodeHeads(e, a.trackHeads, a.heads)
		e.Uvarint(uint64(len(a.byKind)))
		for _, kind := range sortedKeys(a.byKind) {
			e.Uvarint(uint64(kind))
			e.Varint(a.byKind[kind])
		}
		e.Uvarint(uint64(len(a.counts)))
		for _, c := range a.counts {
			e.F64(c)
		}
	case *usageAcc:
		refEncodeSessions(e, a.z.Snapshot())
		refEncodeHeads(e, a.trackHeads, a.heads)
		for hour := 0; hour < simtime.HoursPerDay; hour++ {
			for day := 0; day < 7; day++ {
				e.F64(a.matrix.At(hour, day))
			}
		}
		e.Varint(a.sessions)
	default:
		return acc.SnapshotTo(w)
	}
	return e.Err()
}

// refWriteSnapshotStream is writeSnapshotStream over refSnapshotTo.
func refWriteSnapshotStream(w io.Writer, hdr SnapshotHeader, sets []*accumSet) error {
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
			if err := refSnapshotTo(acc, &buf); err != nil {
				return fmt.Errorf("analysis: snapshot stage %s: %w", name, err)
			}
			sw.RawFrame("stage:"+name, buf.Bytes())
		}
	}
	return sw.Close()
}

// replaySets rebuilds the engine's worker sets after the given
// records: each record goes to its car's shard, in stream order, as
// the dispatcher sends it, and every set is flushed as a checkpoint
// flushes it.
func replaySets(e *Engine, records []cdr.Record) []*accumSet {
	n := e.opts.Workers
	sets := make([]*accumSet, n)
	for i := range sets {
		sets[i] = newAccumSet(e.ctx, e.opts, i)
	}
	for _, r := range records {
		sets[cdr.ShardOfCar(r.Car, n)].add(r)
	}
	for _, s := range sets {
		s.flush()
	}
	return sets
}

// openState counts the open sessions and stashed heads across a
// replayed state's sessionizing stages, so the test can insist the
// in-place paths had something to encode.
func openState(sets []*accumSet) (open, heads int) {
	for _, s := range sets {
		for _, acc := range s.stages {
			switch a := acc.(type) {
			case *handoverAcc:
				open, heads = open+len(a.z.OpenCars()), heads+len(a.heads)
			case *usageAcc:
				open, heads = open+len(a.z.OpenCars()), heads+len(a.heads)
			}
		}
	}
	return open, heads
}

// TestCheckpointBytesMatchReference captures every checkpoint file a
// RunReaderCheckpointed run writes (1 and 2 workers, ordered and
// overlapping streams, heads tracked) and compares each with the
// reference encoding of the same state, rebuilt by replaying the
// stream up to that checkpoint's watermark.
func TestCheckpointBytesMatchReference(t *testing.T) {
	for _, wl := range algebraWorkloads(t) {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(t *testing.T) {
				var files [][]byte
				stubCheckpointIO(t, nil, func(tmp, path string) error {
					b, err := os.ReadFile(tmp)
					if err != nil {
						return err
					}
					files = append(files, b)
					return os.Rename(tmp, path)
				})
				every := int64(len(wl.records) / 4)
				e := NewEngine(engineCtx(), EngineOptions{RunOptions: algebraOpts(), Workers: workers})
				cfg := CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: every}
				if _, err := e.RunReaderCheckpointed(cdr.NewSliceReader(wl.records), cfg); err != nil {
					t.Fatal(err)
				}
				if want := int(int64(len(wl.records)) / every); len(files) != want {
					t.Fatalf("%d checkpoints written, want %d", len(files), want)
				}
				for k, got := range files {
					read := int64(k+1) * every
					sets := replaySets(e, wl.records[:read])
					open, heads := openState(sets)
					if open == 0 || heads == 0 {
						t.Fatalf("checkpoint %d: %d open sessions, %d heads; the in-place encoders go untested", k, open, heads)
					}
					var want bytes.Buffer
					if err := refWriteSnapshotStream(&want, e.checkpointHeader(read), sets); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want.Bytes()) {
						t.Errorf("checkpoint %d at watermark %d: %d bytes differ from the %d-byte reference encoding",
							k, read, len(got), want.Len())
					}
				}
			})
		}
	}
}

// TestPartialBytesMatchReference compares the single-set snapshot that
// partial files and query-service cuts carry with the reference
// encoding, mid-stream (open sessions and heads live) and after the
// whole stream.
func TestPartialBytesMatchReference(t *testing.T) {
	for _, wl := range algebraWorkloads(t) {
		s := NewStreamingWithOptions(engineCtx(), algebraOpts())
		half := len(wl.records) / 2
		for _, part := range [][]cdr.Record{wl.records[:half], wl.records[half:]} {
			if err := s.AddAll(cdr.NewSliceReader(part)); err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := s.SnapshotTo(&got); err != nil {
				t.Fatal(err)
			}
			if err := refWriteSnapshotStream(&want, s.header(), []*accumSet{s.set}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s at watermark %d: %d bytes differ from the %d-byte reference encoding",
					wl.name, s.Watermark(), got.Len(), want.Len())
			}
		}
	}
}

// TestCheckpointStageTelemetry checks the per-stage encode metrics of
// a checkpointed run: every live stage reports encode time and payload
// bytes, a failed stage reports neither, and the stage payloads fit in
// the checkpoint bytes written.
func TestCheckpointStageTelemetry(t *testing.T) {
	records := orderedWorkload(12000)
	reg := obs.New()
	opts := algebraOpts()
	opts.Obs, opts.FailStage = reg, "busy"
	e := NewEngine(engineCtx(), EngineOptions{RunOptions: opts, Workers: 2})
	cfg := CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 3000}
	if _, err := e.RunReaderCheckpointed(cdr.NewSliceReader(records), cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	stageBytes := map[string]int64{}
	var total, writes int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "cellcars_checkpoint_stage_bytes_total":
			stageBytes[c.Labels[0].Value] = c.Value
		case "cellcars_checkpoint_bytes_total":
			total = c.Value
		case "cellcars_checkpoint_writes_total":
			writes = c.Value
		}
	}
	encodes := map[string]int64{}
	for _, tv := range snap.Timings {
		if tv.Name == "cellcars_checkpoint_encode_seconds" {
			encodes[tv.Labels[0].Value] = tv.Count
		}
	}
	if writes != 4 {
		t.Fatalf("%d checkpoint writes, want 4", writes)
	}
	var sum int64
	for _, name := range engineStageOrder {
		if name == "busy" {
			if _, ok := stageBytes[name]; ok {
				t.Errorf("failed stage busy reports checkpoint bytes")
			}
			if _, ok := encodes[name]; ok {
				t.Errorf("failed stage busy reports checkpoint encode time")
			}
			continue
		}
		if stageBytes[name] <= 0 {
			t.Errorf("stage %s: %d checkpoint bytes, want > 0", name, stageBytes[name])
		}
		if encodes[name] != writes {
			t.Errorf("stage %s: %d encode timings, want one per checkpoint (%d)", name, encodes[name], writes)
		}
		sum += stageBytes[name]
	}
	if sum > total {
		t.Errorf("stage payloads sum to %d bytes, more than the %d checkpoint bytes written", sum, total)
	}
}

// BenchmarkCheckpointEncode frames a 2-worker engine state — a 400-car,
// 14-day synth scene with every stage live and heads tracked — the
// work one checkpoint does while the workers wait at the barrier.
func BenchmarkCheckpointEncode(b *testing.B) {
	cfg := synth.DefaultConfig(400)
	cfg.Seed = 5
	cfg.Period = simtime.NewPeriod(t0, 14)
	records, _, err := synth.NewWorld(cfg).GenerateAll()
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(engineCtx(), EngineOptions{RunOptions: algebraOpts(), Workers: 2})
	sets := replaySets(e, records)
	hdr := e.checkpointHeader(int64(len(records)))
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeSnapshotStream(&buf, hdr, sets, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "snapshot-B")
}

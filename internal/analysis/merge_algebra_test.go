package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"cellcars/internal/cdr"
	"cellcars/internal/simtime"
	"cellcars/internal/snapshot"
	"cellcars/internal/synth"
)

// The merge algebra the query service's window fold rests on: Merge
// and MergeOrdered only read their argument, an empty accumulator is a
// left identity of MergeOrdered, and folding in-memory slices equals
// the older fold over restored, consumed snapshot copies. Each property
// runs over two streams — orderedWorkload, which meets the exactness
// precondition, and a synth scene whose stuck-teardown records overlap
// per car — with every stage enabled.

// overlapWorkload is a 14-day synth scene over engineCtx's period. The
// generator's lingering (stuck-teardown) records make many of a car's
// records start before its previous one ends.
func overlapWorkload(t *testing.T) []cdr.Record {
	t.Helper()
	cfg := synth.DefaultConfig(40)
	cfg.Seed = 5
	cfg.Period = simtime.NewPeriod(t0, 14)
	records, _, err := synth.NewWorld(cfg).GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	end := map[cdr.CarID]int64{}
	overlaps := 0
	for _, r := range records {
		if r.Start.UnixNano() < end[r.Car] {
			overlaps++
		}
		end[r.Car] = max(end[r.Car], r.End().UnixNano())
	}
	t.Logf("overlap workload: %d records, %d start before their car's previous record ends", len(records), overlaps)
	if overlaps < len(records)/10 {
		t.Fatalf("synth scene has %d overlapping records of %d; the workload needs many", overlaps, len(records))
	}
	return records
}

type algebraWorkload struct {
	name    string
	records []cdr.Record
}

func algebraWorkloads(t *testing.T) []algebraWorkload {
	return []algebraWorkload{
		{"ordered", orderedWorkload(12000)},
		{"overlap", overlapWorkload(t)},
	}
}

func algebraOpts() RunOptions {
	return RunOptions{RareDays: []int{2, 5}, Seed: 1, BusyCells: engineBusyCells(), TrackHeads: true}
}

// timeSlices cuts records at the given fractions of their length and
// feeds each piece into its own TrackHeads accumulator.
func timeSlices(t *testing.T, records []cdr.Record, fracs ...float64) []*Streaming {
	t.Helper()
	bounds := []int{0}
	for _, f := range fracs {
		bounds = append(bounds, int(f*float64(len(records))))
	}
	bounds = append(bounds, len(records))
	var out []*Streaming
	for i := 0; i+1 < len(bounds); i++ {
		s := NewStreamingWithOptions(engineCtx(), algebraOpts())
		if err := s.AddAll(cdr.NewSliceReader(records[bounds[i]:bounds[i+1]])); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// frames splits a snapshot into its named frames: the header, the
// worker counters, and one "stage:<name>" frame per live stage.
func frames(t *testing.T, s *Streaming) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for {
		name, payload, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out[name] = bytes.Clone(payload)
	}
}

// sameFrames fails naming every frame (stage) whose bytes differ.
func sameFrames(t *testing.T, what string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d snapshot frames, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("%s: frame %q changed (%d bytes, want %d)", what, name, len(got[name]), len(w))
		}
	}
}

// restoreFold is the window fold as the query service ran it before
// folds read in-memory slices, kept as the oracle: every slice
// round-trips through its snapshot, the first restored copy becomes
// the accumulator, and each later copy is merged in and discarded.
func restoreFold(t *testing.T, slices []*Streaming) *Streaming {
	t.Helper()
	var acc *Streaming
	for i, s := range slices {
		var buf bytes.Buffer
		if err := s.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreStreaming(engineCtx(), algebraOpts(), &buf)
		if err != nil {
			t.Fatalf("restore slice %d: %v", i, err)
		}
		if acc == nil {
			acc = restored
			continue
		}
		if err := acc.MergeOrdered(restored); err != nil {
			t.Fatalf("merge slice %d: %v", i, err)
		}
	}
	return acc
}

// memFold folds the slices themselves into a fresh accumulator, as the
// query service does now.
func memFold(t *testing.T, slices []*Streaming) *Streaming {
	t.Helper()
	acc := NewStreamingWithOptions(engineCtx(), algebraOpts())
	for i, s := range slices {
		if err := acc.MergeOrdered(s); err != nil {
			t.Fatalf("merge slice %d: %v", i, err)
		}
	}
	return acc
}

// TestMergeOrderedLeavesLaterUnchanged: folding slices into an
// accumulator changes no slice's snapshot bytes, stage by stage — not
// at the fold, and not after the receiver goes on absorbing Adds for
// the same cars and further merges, the slices' own among them.
func TestMergeOrderedLeavesLaterUnchanged(t *testing.T) {
	for _, wl := range algebraWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			n := len(wl.records)
			head := wl.records[:n*7/10]
			slices := timeSlices(t, head, 0.2, 0.45, 0.5, 0.8)
			before := make([]map[string][]byte, len(slices))
			for i, s := range slices {
				before[i] = frames(t, s)
			}
			check := func(when string) {
				t.Helper()
				for i, s := range slices {
					sameFrames(t, fmt.Sprintf("%s: slice %d", when, i), before[i], frames(t, s))
				}
			}

			acc := memFold(t, slices)
			acc.Finalize()
			check("after fold")

			// The receiver now owns copies of the last slice's open
			// sessions; Adds for the same cars extend those copies.
			for _, r := range wl.records[n*7/10 : n*85/100] {
				acc.Add(r)
			}
			more := timeSlices(t, wl.records[n*85/100:])
			if err := acc.MergeOrdered(more[0]); err != nil {
				t.Fatal(err)
			}
			// Folding in the slices once more, and a copy of them under
			// other car ids, writes into whatever the first fold adopted
			// from them: per-car bitmaps, per-carrier car sets, per-bin
			// car sets of the busy cells.
			renamed := make([]cdr.Record, len(head))
			for i, r := range head {
				r.Car += 1 << 20
				renamed[i] = r
			}
			for _, s := range append(slices, timeSlices(t, renamed, 0.5)...) {
				if err := acc.MergeOrdered(s); err != nil {
					t.Fatal(err)
				}
			}
			acc.Finalize()
			check("after Adds and further merges")
		})
	}
}

// TestMergeLeavesOtherUnchanged: the car-disjoint Merge behind the
// engine and carmerge reads its argument only, including the open
// sessions it closes and the heads it adopts.
func TestMergeLeavesOtherUnchanged(t *testing.T) {
	for _, wl := range algebraWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			var a, b []cdr.Record
			for _, r := range wl.records {
				if cdr.ShardOfCar(r.Car, 2) == 0 {
					a = append(a, r)
				} else {
					b = append(b, r)
				}
			}
			sa := NewStreamingWithOptions(engineCtx(), algebraOpts())
			sb := NewStreamingWithOptions(engineCtx(), algebraOpts())
			if err := sa.AddAll(cdr.NewSliceReader(a)); err != nil {
				t.Fatal(err)
			}
			if err := sb.AddAll(cdr.NewSliceReader(b)); err != nil {
				t.Fatal(err)
			}
			before := frames(t, sb)
			sa.set.merge(sb.set)
			sa.Finalize()
			sameFrames(t, "after Merge", before, frames(t, sb))

			// An empty set that adopts sb's state and then absorbs sb's
			// records again, for the same cars, must still leave sb alone.
			c := NewStreamingWithOptions(engineCtx(), algebraOpts())
			c.set.merge(sb.set)
			for _, r := range b {
				c.Add(r)
			}
			c.Finalize()
			sameFrames(t, "after Merge and Adds", before, frames(t, sb))
		})
	}
}

// TestMergeOrderedEmptyIsLeftIdentity: folding a slice into an empty
// accumulator reproduces the slice — the same report and the same
// snapshot bytes — which is what lets a window fold start from a fresh
// accumulator instead of a copy of its first bucket.
func TestMergeOrderedEmptyIsLeftIdentity(t *testing.T) {
	for _, wl := range algebraWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			for i, s := range timeSlices(t, wl.records, 0.3, 0.6) {
				e := NewStreamingWithOptions(engineCtx(), algebraOpts())
				if err := e.MergeOrdered(s); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(s.Finalize(), e.Finalize()) {
					t.Fatalf("slice %d: empty.MergeOrdered(A) finalizes differently from A", i)
				}
				sameFrames(t, fmt.Sprintf("empty.MergeOrdered(A) vs A, slice %d", i), frames(t, s), frames(t, e))
			}
		})
	}
}

// TestInMemoryFoldMatchesRestoreFold: folding in-memory slices into a
// fresh accumulator finalizes and snapshots exactly as the restore-
// and-consume oracle does, for cut sets with empty slices, one-record
// slices and many boundaries — on the overlapping stream too, where
// neither equals a single pass.
func TestInMemoryFoldMatchesRestoreFold(t *testing.T) {
	for _, wl := range algebraWorkloads(t) {
		t.Run(wl.name, func(t *testing.T) {
			n := float64(len(wl.records))
			for _, fracs := range [][]float64{
				{0.5},
				{0, 0.25, 0.5, 0.75},
				{1 / n, 2 / n, 0.4, 0.4 + 1/n, 0.9},
				{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
			} {
				slices := timeSlices(t, wl.records, fracs...)
				want := restoreFold(t, slices)
				got := memFold(t, slices)
				if !reflect.DeepEqual(want.Finalize(), got.Finalize()) {
					t.Fatalf("cuts %v: in-memory fold diverges from the restore fold", fracs)
				}
				sameFrames(t, "in-memory vs restore fold", frames(t, want), frames(t, got))
			}
		})
	}
}

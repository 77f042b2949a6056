package query

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
)

// synthScene is a synth scene over queryCtx(days). Its stuck-teardown
// records overlap per car, so window folds over it are not equal to a
// batch pass — only to the older restore-based fold.
func synthScene(t *testing.T, cars, days int) []cdr.Record {
	t.Helper()
	cfg := synth.DefaultConfig(cars)
	cfg.Seed = 9
	cfg.Period = simtime.NewPeriod(qt0, days)
	records, _, err := synth.NewWorld(cfg).GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// restoreFold is the window fold as the store ran it before folds read
// the in-memory buckets, kept as the oracle: encode every covered
// bucket under the lock, then restore each encoding and left-fold the
// restored copies, each consumed by the merge.
func restoreFold(t *testing.T, s *Store, w Window) *analysis.StreamReport {
	t.Helper()
	var encs [][]byte
	s.mu.Lock()
	for idx := max(s.live-int(w.Span/s.width)+1, 0); s.live >= 0 && idx <= s.live; idx++ {
		if b := s.buckets[idx]; b != nil {
			enc, err := b.encodeLocked()
			if err != nil {
				s.mu.Unlock()
				t.Fatal(err)
			}
			encs = append(encs, enc)
		}
	}
	s.mu.Unlock()
	var acc *analysis.Streaming
	for i, enc := range encs {
		restored, err := analysis.RestoreStreaming(s.ctx, s.opts, bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("restore bucket %d: %v", i, err)
		}
		if acc == nil {
			acc = restored
			continue
		}
		if err := acc.MergeOrdered(restored); err != nil {
			t.Fatalf("fold bucket %d: %v", i, err)
		}
	}
	if acc == nil {
		acc = analysis.NewStreamingWithOptions(s.ctx, s.opts)
	}
	rep := acc.Finalize()
	return &rep
}

// TestWindowBodiesMatchRestoreFold: on a 90-day scene with overlapping
// records, every endpoint over every default window serves the bytes
// the restore-based fold renders — at mid-stream and at the end.
func TestWindowBodiesMatchRestoreFold(t *testing.T) {
	records := synthScene(t, 12, 90)
	s, err := New(Config{Ctx: queryCtx(90), Opts: analysis.RunOptions{RareDays: []int{10, 30}}})
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for _, at := range []int{len(records) / 2, len(records)} {
		feed(t, s, records[fed:at])
		fed = at
		for _, w := range s.Windows() {
			want := restoreFold(t, s, w)
			if want.Records == 0 {
				t.Fatalf("window %s at %d records is empty", w.Name, at)
			}
			for _, ep := range Endpoints() {
				view, _ := viewFor(ep)
				wantBody, err := view(want)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Report(ep, w.Name)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBody) {
					t.Fatalf("%s/%s at %d records differs from the restore fold:\n%s\nvs\n%s", ep, w.Name, at, got, wantBody)
				}
			}
		}
	}
}

// inPeriod keeps the records starting inside queryCtx(days): the rest
// would all land in the last bucket and never advance the epoch.
func inPeriod(records []cdr.Record, days int) []cdr.Record {
	end := queryCtx(days).Period.End()
	var out []cdr.Record
	for _, r := range records {
		if r.Start.Before(end) {
			out = append(out, r)
		}
	}
	return out
}

// withLateRecords interleaves, after every seventh record, a copy of
// it moved three hours back under another car id: a late arrival into
// a bucket the live edge has already passed.
func withLateRecords(records []cdr.Record) []cdr.Record {
	out := make([]cdr.Record, 0, len(records)*8/7)
	for i, r := range records {
		out = append(out, r)
		if i%7 == 6 {
			late := r
			late.Car += 10_000
			late.Start = late.Start.Add(-3 * time.Hour)
			out = append(out, late)
		}
	}
	return out
}

// encodings snapshots each stream.
func encodings(t *testing.T, streams []*analysis.Streaming) [][]byte {
	t.Helper()
	out := make([][]byte, len(streams))
	for i, st := range streams {
		var buf bytes.Buffer
		if err := st.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestConcurrentAddsAndReports runs one writer — in-order records and
// late ones into already-folded buckets — against readers asking every
// endpoint of every window, plus a loop folding a fixed set of pinned
// buckets. Every served body must equal a sequential reference fold at
// the watermark it was folded at, and the pinned buckets' encodings
// must not change. Run it under -race.
func TestConcurrentAddsAndReports(t *testing.T) {
	ctx := queryCtx(3)
	windows := []Window{{Name: "6h", Span: 6 * time.Hour}, {Name: "24h", Span: 24 * time.Hour}, {Name: "72h", Span: 72 * time.Hour}}
	stream := withLateRecords(inPeriod(queryWorkload(6000, 3), 3))
	reg := obs.New()
	s, err := New(Config{Ctx: ctx, Windows: windows, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	half := len(stream) / 2
	feed(t, s, stream[:half])

	s.mu.Lock()
	pinned := s.pinLocked(windows[2])
	s.mu.Unlock()
	before := encodings(t, pinned)

	type sample struct {
		endpoint, window string
		watermark        int64
		body             []byte
	}
	const readers = 3
	samples := make([]map[string]sample, readers)
	done := make(chan struct{})
	var served, stopped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		samples[g] = map[string]sample{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer stopped.Add(1)
			eps := Endpoints()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ep, w := eps[(g+i)%len(eps)], windows[i%len(windows)]
				body, wm, err := s.report(ep, w.Name)
				if err != nil {
					t.Error(err)
					return
				}
				samples[g][fmt.Sprintf("%s|%s|%d", ep, w.Name, wm)] = sample{ep, w.Name, wm, body}
				served.Add(1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.fold("pinned", pinned); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The writer goes on after every chunk only once the readers have
	// answered a few more requests, so writes and folds interleave.
	for i, r := range stream[half:] {
		s.Add(r)
		if i%40 == 0 {
			for n := served.Load(); served.Load() < n+readers && stopped.Load() == 0; {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()

	for i, enc := range encodings(t, pinned) {
		if !bytes.Equal(enc, before[i]) {
			t.Fatalf("pinned bucket %d changed under concurrent Adds", i)
		}
	}
	if clones := reg.Counter("cellcars_query_bucket_clones_total").Value(); clones == 0 {
		t.Fatal("late records into pinned buckets made no copy-on-write clone")
	}

	var all []sample
	for _, m := range samples {
		for _, smp := range m {
			all = append(all, smp)
		}
	}
	for _, w := range windows {
		body, wm, err := s.report("full", w.Name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sample{"full", w.Name, wm, body})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].watermark < all[j].watermark })

	ref, err := New(Config{Ctx: ctx, Windows: windows})
	if err != nil {
		t.Fatal(err)
	}
	var fed int64
	folds := map[string]*analysis.StreamReport{}
	for _, smp := range all {
		if smp.watermark < int64(half) || smp.watermark > int64(len(stream)) {
			t.Fatalf("sample folded at watermark %d, outside [%d, %d]", smp.watermark, half, len(stream))
		}
		if smp.watermark > fed {
			feed(t, ref, stream[fed:smp.watermark])
			fed = smp.watermark
			folds = map[string]*analysis.StreamReport{}
		}
		rep := folds[smp.window]
		if rep == nil {
			if rep, err = ref.WindowReport(smp.window); err != nil {
				t.Fatal(err)
			}
			folds[smp.window] = rep
		}
		view, _ := viewFor(smp.endpoint)
		want, err := view(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(smp.body, want) {
			t.Fatalf("%s/%s folded at watermark %d differs from the sequential reference", smp.endpoint, smp.window, smp.watermark)
		}
	}
	t.Logf("%d distinct (endpoint, window, watermark) bodies checked", len(all))
	if len(all) < 10*len(windows) {
		t.Fatalf("only %d samples; readers barely overlapped the writer", len(all))
	}
}

// TestOneFoldPerWindowEpoch: every endpoint of one window at one epoch
// renders from a single fold, concurrent first requests included; an
// epoch advance costs one more fold per window asked for, WindowReport
// always folds afresh, and an Add clones a pinned bucket exactly once.
func TestOneFoldPerWindowEpoch(t *testing.T) {
	records := inPeriod(queryWorkload(4000, 2), 2)
	reg := obs.New()
	s, err := New(Config{Ctx: queryCtx(2), Obs: reg, Windows: []Window{{Name: "48h", Span: 48 * time.Hour}, {Name: "6h", Span: 6 * time.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	folds := reg.Counter("cellcars_query_folds_total")
	clones := reg.Counter("cellcars_query_bucket_clones_total")
	half := len(records) / 2
	feed(t, s, records[:half])

	ask := func(ep, win string) {
		t.Helper()
		if _, err := s.Report(ep, win); err != nil {
			t.Fatal(err)
		}
	}
	ask("summary", "48h")
	ask("full", "48h")
	if n := folds.Value(); n != 1 {
		t.Fatalf("summary and full of one window at one epoch ran %d folds, want 1", n)
	}
	for _, ep := range Endpoints() {
		ask(ep, "48h")
	}
	if n := folds.Value(); n != 1 {
		t.Fatalf("every endpoint of one window ran %d folds, want 1", n)
	}
	ask("summary", "6h")
	if n := folds.Value(); n != 2 {
		t.Fatalf("a second window brought the fold count to %d, want 2", n)
	}

	// An Add into the live bucket, which the folds pinned, clones it
	// once; the clone is private, so the next Add does not clone again.
	c0 := clones.Value()
	s.Add(records[half])
	s.Add(records[half+1])
	if n := clones.Value() - c0; n != 1 {
		t.Fatalf("two Adds into a pinned bucket made %d clones, want 1", n)
	}

	// Advance the epoch; concurrent first requests share one fold.
	feed(t, s, records[half+2:])
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, ep := range Endpoints() {
		wg.Add(1)
		go func(ep string) {
			defer wg.Done()
			<-start
			if _, err := s.Report(ep, "48h"); err != nil {
				t.Error(err)
			}
		}(ep)
	}
	close(start)
	wg.Wait()
	if n := folds.Value(); n != 3 {
		t.Fatalf("concurrent first requests after an advance brought the fold count to %d, want 3", n)
	}
	if _, err := s.WindowReport("48h"); err != nil {
		t.Fatal(err)
	}
	if n := folds.Value(); n != 4 {
		t.Fatalf("WindowReport brought the fold count to %d, want 4 (it bypasses the cache)", n)
	}
}

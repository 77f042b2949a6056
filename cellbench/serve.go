package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/query"
	"cellcars/internal/snapshot"
)

// The dashboard client's fetch set after each live-bucket advance:
// {summary, full} × the default windows, in this order.
var (
	dashEndpoints = []string{"summary", "full"}
	dashWindows   = []string{"24h", "7d", "90d"}
)

// lifeConfig configures one carqueryd life over a spec's input.
type lifeConfig struct {
	ctx analysis.Context
	// prefix is the record count the cold start drains.
	prefix int64
	// coldStarts is how many times phase A runs; ingest is measured
	// over all of them.
	coldStarts int
	// restores is how many times phase B restarts; the last restart
	// serves phase C.
	restores int
	// maxAdvances stops phase C after that many live advances (0: at
	// the end of the input).
	maxAdvances int
	// probeEvery, when positive, times the query layer's parts after
	// every probeEvery-th advance (traced runs): each window's fold, the
	// full view, and a repeated, cached fetch for the HTTP share.
	probeEvery int
	tr         *tracer
	parent     int
}

// lifeOut is one life's outputs and timings (seconds).
type lifeOut struct {
	records         int64
	drain, cut      []float64 // per cold start
	cutBytes        int64
	restore, skip   []float64 // per restart: query.New+Restore, cdr.Skip
	live, wall, cpu float64

	// fresh holds every first-request latency (ms); freshBy splits them
	// by endpoint/window.
	fresh    []float64
	freshBy  map[string][]float64
	requests int64
	bad      int64 // non-200 answers
	advances int

	// Bodies at the first and the last live advance, with the record
	// counts ingested when they were fetched.
	first, final     map[string][]byte
	firstAt, finalAt int64

	// Dashboard-only cache counters and the traced probes.
	hits, misses int64
	fold         map[string][]float64 // ms per window
	viewFull     []float64            // ms
	http         []float64            // ms
	// idle is what the benchmark spent standing in for the hour
	// between advances (a forced GC), excluded from wall time; its CPU
	// collects the program's own garbage and stays counted.
	probeTime, idle time.Duration
}

func dashKey(ep, win string) string { return ep + "/" + win }

func storeConfig(sp *spec, ctx analysis.Context, dir *snapshot.Dir, reg *obs.Registry) query.Config {
	return query.Config{Ctx: ctx, Opts: analysis.RunOptions{Seed: 1, RareDays: sp.rareDays()}, Snapshots: dir, Obs: reg}
}

// serveLife runs one carqueryd life: (A) cold start draining the
// prefix, then the EOF cut, repeated coldStarts times; (B) restart:
// query.New, Store.Restore and cdr.Skip to the watermark, repeated
// restores times; (C) the live tail in start order, with a closed-loop
// dashboard fetching every (endpoint, window) through Server.ServeHTTP
// after each advance of the live bucket. The life's wall time counts
// the last cold start and the last restart.
func serveLife(sp *spec, lc lifeConfig) (*lifeOut, error) {
	out := &lifeOut{freshBy: map[string][]float64{}, fold: map[string][]float64{}}
	dir := &snapshot.Dir{Path: filepath.Join(sp.Dir, "cuts"), Keep: 2}
	tr := lc.tr

	var cpuA float64
	for i := 0; i < max(lc.coldStarts, 1); i++ {
		runtime.GC()
		cpu0 := cpuSeconds()
		if err := out.coldStart(sp, lc, dir); err != nil {
			return nil, err
		}
		cpuA = cpuSeconds() - cpu0
	}
	out.records = lc.prefix
	var err error
	var reg *obs.Registry

	// (B) restart, timed as carqueryd's time to ready.
	var live *query.Store
	var liveRR *cdr.ResilientReader
	var liveF *os.File
	var cpuB float64
	for i := 0; i < max(lc.restores, 1); i++ {
		if liveF != nil {
			liveF.Close()
		}
		live, liveRR = nil, nil
		runtime.GC()
		cpuB0, tb0 := cpuSeconds(), time.Now()
		bID := tr.begin("query.restore", lc.parent)
		reg = obs.New()
		live, err = query.New(storeConfig(sp, lc.ctx, dir, reg))
		if err != nil {
			return nil, err
		}
		wm, ok, err := live.Restore()
		if err != nil || !ok {
			return nil, fmt.Errorf("restore: ok=%v err=%v", ok, err)
		}
		tr.end(bID)
		tb1 := time.Now()
		sID := tr.begin("cdr.skip", lc.parent)
		liveRR, liveF, err = sp.openInput(reg)
		if err != nil {
			return nil, err
		}
		if err := cdr.Skip(liveRR, wm); err != nil {
			liveF.Close()
			return nil, err
		}
		tr.end(sID)
		tb2 := time.Now()
		out.restore = append(out.restore, secs(tb1.Sub(tb0)))
		out.skip = append(out.skip, secs(tb2.Sub(tb1)))
		cpuB = cpuSeconds() - cpuB0
	}
	defer liveF.Close()

	// (C) live tail with the closed-loop dashboard.
	cpuC0, tc0 := cpuSeconds(), time.Now()
	lID := tr.begin("query.live", lc.parent)
	srv := query.NewServer(live, reg)
	hits := reg.Counter("cellcars_query_cache_hits_total")
	misses := reg.Counter("cellcars_query_cache_misses_total")
	src, liveRead, adds := cdr.Reader(liveRR), &timedReader{r: liveRR}, &callTimer{}
	if tr != nil {
		src = liveRead
	}
	epoch := live.Epoch()
	for {
		rec, err := src.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		addTimed(live, rec, adds, tr != nil)
		out.records++
		if e := live.Epoch(); e != epoch {
			epoch = e
			out.advances++
			// In production an hour passes between advances and the
			// runtime finishes its collection long before the dashboard
			// asks; the benchmark stands in for that hour with a forced
			// GC, so each pass starts from a settled heap.
			i0 := time.Now()
			runtime.GC()
			idle := time.Since(i0)
			out.idle += idle
			tr.aggregate("bench.idle_gc", lID, i0, i0.Add(idle), idle, 1)
			h0, m0 := hits.Value(), misses.Value()
			bodies := out.dashboard(srv, tr, lID)
			out.hits += hits.Value() - h0
			out.misses += misses.Value() - m0
			if out.first == nil {
				out.first, out.firstAt = bodies, out.records
			}
			out.final, out.finalAt = bodies, out.records
			if lc.probeEvery > 0 && out.advances%lc.probeEvery == 0 {
				p0 := time.Now()
				if err := out.probeQuery(live, srv); err != nil {
					return nil, err
				}
				d := time.Since(p0)
				out.probeTime += d
				tr.aggregate("query.probe", lID, p0, p0.Add(d), d, 1)
			}
			if lc.maxAdvances > 0 && out.advances >= lc.maxAdvances {
				break
			}
		}
	}
	if tr != nil {
		liveRead.span(tr, "cdr.read", lID)
		adds.span(tr, "query.add", lID)
	}
	tr.end(lID)
	tc1 := time.Now()
	out.live = secs(tc1.Sub(tc0) - out.probeTime - out.idle)
	out.cpu = cpuA + cpuB + cpuSeconds() - cpuC0
	out.wall = last(out.drain) + last(out.cut) + out.restore[len(out.restore)-1] + out.skip[len(out.skip)-1] + out.live
	return out, nil
}

// coldStart is phase A once: a fresh store over a fresh snapshot
// directory drains the prefix through the resilient reader, then the
// EOF cut runs.
func (out *lifeOut) coldStart(sp *spec, lc lifeConfig, dir *snapshot.Dir) error {
	if err := os.RemoveAll(dir.Path); err != nil {
		return err
	}
	tr := lc.tr
	t0 := time.Now()
	aID := tr.begin("query.drain", lc.parent)
	reg := obs.New()
	store, err := query.New(storeConfig(sp, lc.ctx, dir, reg))
	if err != nil {
		return err
	}
	rr, f, err := sp.openInput(reg)
	if err != nil {
		return err
	}
	defer f.Close()
	src, read, adds := cdr.Reader(rr), &timedReader{r: rr}, &callTimer{}
	if tr != nil {
		src = read
	}
	for n := int64(0); n < lc.prefix; n++ {
		rec, err := src.Read()
		if err != nil {
			return fmt.Errorf("cold start read %d of %d: %w", n, lc.prefix, err)
		}
		addTimed(store, rec, adds, tr != nil)
	}
	if tr != nil {
		read.span(tr, "cdr.read", aID)
		adds.span(tr, "query.add", aID)
	}
	tr.end(aID)
	tDrain := time.Now()
	cID := tr.begin("query.cut", lc.parent)
	seq, err := store.Checkpoint()
	if err != nil {
		return fmt.Errorf("EOF cut: %w", err)
	}
	tr.end(cID)
	out.drain = append(out.drain, secs(tDrain.Sub(t0)))
	out.cut = append(out.cut, secs(time.Since(tDrain)))
	if fi, err := os.Stat(dir.CutPath(seq)); err == nil {
		out.cutBytes = fi.Size()
	}
	return nil
}

// addTimed is Store.Add, timed into adds when traced.
func addTimed(s *query.Store, rec cdr.Record, adds *callTimer, traced bool) {
	if !traced {
		s.Add(rec)
		return
	}
	t0 := time.Now()
	s.Add(rec)
	adds.since(t0)
}

// dashboard is one closed-loop client pass: each fetch waits for the
// previous reply. These are the first requests per (endpoint, window)
// since the advance, so each latency is a fresh sample.
func (out *lifeOut) dashboard(srv *query.Server, tr *tracer, parent int) map[string][]byte {
	bodies := make(map[string][]byte, len(dashEndpoints)*len(dashWindows))
	for _, win := range dashWindows {
		for _, ep := range dashEndpoints {
			code, body, d := fetch(srv, ep, win)
			end := time.Now()
			tr.aggregate("query.http", parent, end.Add(-d), end, d, 1)
			out.requests++
			if code != http.StatusOK {
				out.bad++
			}
			ms := d.Seconds() * 1000
			out.fresh = append(out.fresh, ms)
			out.freshBy[dashKey(ep, win)] = append(out.freshBy[dashKey(ep, win)], ms)
			bodies[dashKey(ep, win)] = body
		}
	}
	return bodies
}

// fetch is one in-process GET through the server's handler.
func fetch(srv *query.Server, ep, win string) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, "/report/"+ep+"?window="+win, nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, bytes.Clone(rec.Body.Bytes()), d
}

// probeQuery splits fetches into their parts after the dashboard pass
// of an advance: each window's fold (Store.WindowReport, which bypasses
// the response cache), the full view over it (query.MarshalReport), and
// the HTTP share — a cached fetch through ServeHTTP minus the cached
// Store.Report it wraps.
func (out *lifeOut) probeQuery(s *query.Store, srv *query.Server) error {
	for _, win := range dashWindows {
		t0 := time.Now()
		rep, err := s.WindowReport(win)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := query.MarshalReport(rep); err != nil {
			return err
		}
		out.fold[win] = append(out.fold[win], t1.Sub(t0).Seconds()*1000)
		out.viewFull = append(out.viewFull, time.Since(t1).Seconds()*1000)
	}
	_, _, viaHTTP := fetch(srv, "summary", "24h")
	t0 := time.Now()
	if _, err := s.Report("summary", "24h"); err != nil {
		return err
	}
	out.http = append(out.http, (viaHTTP-time.Since(t0)).Seconds()*1000)
	return nil
}

// serveReference replays the same records into a store that never
// restarts and returns its bodies at the two sampled points.
func serveReference(sp *spec, ctx analysis.Context, firstAt, finalAt int64) (first, final map[string][]byte, err error) {
	store, err := query.New(storeConfig(sp, ctx, nil, nil))
	if err != nil {
		return nil, nil, err
	}
	rr, f, err := sp.openInput(nil)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var n int64
	bodiesAt := func(at int64) (map[string][]byte, error) {
		for ; n < at; n++ {
			rec, err := rr.Read()
			if err != nil {
				return nil, fmt.Errorf("reference read at %d: %w", n, err)
			}
			store.Add(rec)
		}
		out := map[string][]byte{}
		for _, win := range dashWindows {
			for _, ep := range dashEndpoints {
				b, err := store.Report(ep, win)
				if err != nil {
					return nil, err
				}
				out[dashKey(ep, win)] = b
			}
		}
		return out, nil
	}
	if first, err = bodiesAt(firstAt); err != nil {
		return nil, nil, err
	}
	final, err = bodiesAt(finalAt)
	return first, final, err
}

// mismatches counts bodies that differ from the reference's.
func mismatches(got, want map[string][]byte) int64 {
	var n int64
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			n++
		}
	}
	return n
}

func (sp *spec) serveContext() analysis.Context {
	return analysis.Context{Period: sp.period(), TZOffsetSeconds: sceneTZ}
}

// A serve life starts cold serveColdStarts times (ingest_records_per_s
// covers them all) and restarts serveRestores times (setup_s is their
// median).
const (
	serveColdStarts = 5
	serveRestores   = 7
)

// measureServe runs carqueryd lives while another one, as long as the
// last, still ends within the spec's seconds (at least one life), so a
// life of about half the seconds does not sometimes double the run.
// Every dashboard request and every life is an attempted operation.
func measureServe(sp *spec) (*childResult, error) {
	ctx := sp.serveContext()
	var (
		lives                                []*lifeOut
		rate, ingest, cpu, setup, fresh, rss []float64
	)
	start := time.Now()
	var lifeTime time.Duration
	for len(lives) == 0 || time.Now().Add(lifeTime).Before(sp.deadline(start)) {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := serveLife(sp, lifeConfig{ctx: ctx, prefix: sp.PrefixRecords, coldStarts: serveColdStarts, restores: serveRestores})
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		lives = append(lives, out)
		lifeTime = time.Since(t0)
		rate = append(rate, float64(out.records)/out.wall)
		ingest = append(ingest, float64(sp.PrefixRecords)*float64(len(out.drain))/(sum(out.drain)+sum(out.cut)))
		cpu = append(cpu, out.cpu/float64(out.records)*1e6)
		for i := range out.restore {
			setup = append(setup, out.restore[i]+out.skip[i])
		}
		fresh = append(fresh, out.fresh...)
	}

	// Every life ingests the same input, so one reference serves all;
	// a life whose samples fell elsewhere has failed.
	first, final, err := serveReference(sp, ctx, lives[0].firstAt, lives[0].finalAt)
	if err != nil {
		return nil, fmt.Errorf("serve reference: %w", err)
	}
	attempted, failed := int64(0), int64(0)
	for i, out := range lives {
		if i == 0 && sp.Plant {
			out.final[dashKey("full", "90d")] = append(bytes.Clone(out.final[dashKey("full", "90d")]), ' ')
		}
		attempted += 1 + out.requests
		failed += out.bad + mismatches(out.first, first) + mismatches(out.final, final)
		if out.firstAt != lives[0].firstAt || out.finalAt != lives[0].finalAt {
			failed++
		}
	}
	m := map[string]metric{
		"records_per_s":        {median(rate), "1/s"},
		"cpu_s_per_mrec":       {median(cpu), "s"},
		"setup_s":              {median(setup), "s"},
		"peak_rss_mb":          {median(rss), "MB"},
		"ingest_records_per_s": {median(ingest), "1/s"},
		"fresh_p50_ms":         {median(fresh), "ms"},
		"fresh_p90_ms":         {percentile(fresh, 0.9), "ms"},
	}
	note := fmt.Sprintf("serve: %d lives, %d fresh samples (%d advances × %d requests)",
		len(lives), len(fresh), lives[0].advances, len(dashEndpoints)*len(dashWindows))
	return &childResult{Attempted: attempted, Failed: failed, Metrics: m, Notes: []string{note}}, nil
}

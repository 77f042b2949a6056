package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/radio"
)

// layerMap is layers.json: why each workload exists, which layers it
// exercises or bypasses, how each end-to-end metric is defined on it,
// and, for every per-layer metric, its source on each workload and the
// end-to-end metric and workload it should move.
type layerMap struct {
	Layers    []string `json:"layers"`
	Workloads map[string]struct {
		Why       string   `json:"why"`
		Exercises []string `json:"exercises"`
		Bypasses  []string `json:"bypasses"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string            `json:"name"`
		Unit   string            `json:"unit"`
		Better string            `json:"better"`
		What   string            `json:"what"`
		Source map[string]string `json:"source"`
		Moves  []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
	} `json:"per_layer"`
	// Dropped names per-layer metrics the benchmark's vocabulary
	// defines but does not report, with the reason.
	Dropped map[string]string `json:"dropped"`
}

//go:embed layers.json
var layersJSON []byte

var (
	layers   = mustLayerMap()
	endToEnd = func() []string {
		var names []string
		for _, m := range layers.EndToEnd {
			names = append(names, m.Name)
		}
		return names
	}()
)

func mustLayerMap() *layerMap {
	var m layerMap
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return &m
}

func perLayerNames() []string {
	names := make([]string, len(layers.PerLayer))
	for i, m := range layers.PerLayer {
		names[i] = m.Name
	}
	return names
}

func perLayerUnit(name string) string {
	for _, m := range layers.PerLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("undeclared per-layer metric " + name)
}

// layerSet collects a traced run's per-layer metrics with the base
// each was computed from, for the rendered table.
type layerSet struct {
	workload string
	m        map[string]metric
	base     map[string]string
}

func newLayerSet(workload string) *layerSet {
	return &layerSet{workload: workload, m: map[string]metric{}, base: map[string]string{}}
}

func (l *layerSet) set(name string, v float64, base string, args ...any) {
	l.m[name] = metric{Value: v, Unit: perLayerUnit(name)}
	l.base[name] = fmt.Sprintf(base, args...)
}

// table renders the per-layer metrics, with each value's source and
// base, followed by the traced pass's span self times.
func (l *layerSet) table(tr *tracer) []string {
	lines := []string{
		fmt.Sprintf("per-layer metrics, %s (traced run; GOMAXPROCS=%d)", l.workload, runtime.GOMAXPROCS(0)),
		"| metric | value | unit | source | base |",
		"|---|---|---|---|---|",
	}
	for _, pl := range layers.PerLayer {
		v := l.m[pl.Name]
		lines = append(lines, fmt.Sprintf("| %s | %.6g | %s | %s | %s |", pl.Name, v.Value, v.Unit, pl.Source[l.workload], l.base[pl.Name]))
	}
	for name, why := range layers.Dropped {
		lines = append(lines, fmt.Sprintf("| %s | dropped | | | %s |", name, why))
	}
	lines = append(lines, "", "| span | count | busy s | self s |", "|---|---|---|---|")
	var names []string
	seen := map[string]bool{}
	for _, s := range tr.spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	for _, n := range names {
		busy, self, count := tr.byName(n)
		lines = append(lines, fmt.Sprintf("| %s | %d | %.6f | %.6f |", n, count, busy, self))
	}
	return lines
}

// overheadFrac is median(on)/median(off) - 1 with its base.
func overheadFrac(on, off []float64) (float64, string) {
	a, b := median(on), median(off)
	return ratio(a, b) - 1, fmt.Sprintf("%.4f s on vs %.4f s off (medians of %d and %d)", a, b, len(on), len(off))
}

// ---------------------------------------------------------------------------
// Layer probes: single layers timed over the workload's own input. A
// traced run takes a per-layer metric from its pass where the pass
// crosses that layer, and from these probes where it does not.

// acceptedRecords reads the input through the resilient reader.
func acceptedRecords(sp *spec) ([]cdr.Record, cdr.IngestStats, error) {
	rr, f, err := sp.openInput(nil)
	if err != nil {
		return nil, cdr.IngestStats{}, err
	}
	defer f.Close()
	recs, err := cdr.ReadAll(rr)
	return recs, rr.Stats(), err
}

// probeCDR times one resilient scan (Read self time) and a cdr.Skip
// over every delivered record.
func probeCDR(sp *spec, l *layerSet, wantRead bool) error {
	rr, f, err := sp.openInput(nil)
	if err != nil {
		return err
	}
	tr := &timedReader{r: rr}
	_, err = cdr.ReadAll(tr)
	f.Close()
	if err != nil {
		return err
	}
	ist := rr.Stats()
	if wantRead {
		l.set("cdr.read_s", tr.busy.Seconds(), "%d Read calls over %d input bytes", tr.calls, sp.Bytes)
	}
	rr, f, err = sp.openInput(nil)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	if err := cdr.Skip(rr, ist.Read); err != nil {
		return err
	}
	l.set("cdr.skip_s", time.Since(t0).Seconds(), "skipping %d delivered records", ist.Read)
	return nil
}

// probeAnalysis measures the engine layer over the input file: the
// checkpoint and registry overheads (two alternating rounds of
// on / checkpoints-off / registry-off), the single-worker baseline,
// the engine's self time where the pass has none, and every stage
// alone through its public per-figure function.
func probeAnalysis(sp *spec, ctx analysis.Context, stageCtx analysis.Context, busy []radio.CellKey, l *layerSet, wantEngine bool) error {
	every := int64(ckptEvery)
	if sp.Records < 4*every {
		every = max(sp.Records/4, 1)
	}
	var on, noCkpt, noObs, engineSelf []float64
	var ckptBytes, ckptWrites int64
	for round := 0; round < 2; round++ {
		for _, v := range []struct {
			ckpt int64
			obs  bool
			dst  *[]float64
		}{{every, true, &on}, {0, true, &noCkpt}, {every, false, &noObs}} {
			runtime.GC()
			tr := newTracer("probe")
			out, err := runStudy(sp, ctx, studyRun{workers: nproc(), ckpt: v.ckpt, obs: v.obs, tr: tr})
			if err != nil {
				return err
			}
			*v.dst = append(*v.dst, out.engine)
			if v.ckpt > 0 && v.obs {
				_, self, _ := tr.byName("analysis.engine")
				engineSelf = append(engineSelf, self)
				ckptBytes = out.reg.Counter("cellcars_checkpoint_bytes_total").Value()
				ckptWrites = out.reg.Counter("cellcars_checkpoint_writes_total").Value()
			}
		}
	}
	f, base := overheadFrac(on, noCkpt)
	l.set("analysis.checkpoint_overhead_frac", f, "%s; a checkpoint every %d records", base, every)
	f, base = overheadFrac(on, noObs)
	l.set("obs.registry_overhead_frac", f, "%s", base)
	l.set("analysis.checkpoint_bytes", ratio(float64(ckptBytes), float64(ckptWrites)), "%d bytes over %d checkpoints", ckptBytes, ckptWrites)
	if wantEngine {
		l.set("analysis.engine_s", median(engineSelf), "engine wall minus its reads, median of %d", len(engineSelf))
	}

	runtime.GC()
	w1, err := runStudy(sp, ctx, studyRun{workers: 1})
	if err != nil {
		return err
	}
	l.set("analysis.w1_records_per_s", float64(sp.Records)/w1.engine, "%d records in %.4f s", sp.Records, w1.engine)

	recs, _, err := acceptedRecords(sp)
	if err != nil {
		return err
	}
	n := float64(len(recs))
	stage := func(name string, fn func()) {
		runtime.GC()
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		l.set("analysis.stage."+name+"_ns_per_rec", float64(d.Nanoseconds())/n, "%.4f s over %d records", d.Seconds(), len(recs))
	}
	p := stageCtx.Period
	rare := sp.rareDays()
	stage("presence", func() { analysis.DailyPresenceOf(recs, p) })
	stage("connected", func() { analysis.ConnectedTimeOf(recs, p) })
	stage("days", func() { analysis.DaysOnNetwork(recs, p) })
	stage("segments", func() { analysis.Segmentation(recs, stageCtx, rare...) })
	stage("busy", func() { analysis.BusyTimeOf(recs, stageCtx) })
	stage("durations", func() { analysis.CellDurationsOf(recs) })
	stage("handovers", func() { analysis.HandoversOf(recs) })
	stage("carriers", func() { analysis.CarrierUsageOf(recs) })
	stage("usage", func() { analysis.UsageMatrix(recs, stageCtx) })
	stage("clusters", func() { analysis.ClusterBusyCells(recs, stageCtx, busy, rand.New(rand.NewPCG(1, 2))) })
	return nil
}

// probeSnapshot encodes and decodes the whole input's streaming state.
func probeSnapshot(sp *spec, ctx analysis.Context, l *layerSet) error {
	recs, _, err := acceptedRecords(sp)
	if err != nil {
		return err
	}
	opts := analysis.RunOptions{Seed: 1, RareDays: sp.rareDays()}
	s := analysis.NewStreamingWithOptions(ctx, opts)
	for _, r := range recs {
		s.Add(r)
	}
	var enc, dec []float64
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := s.SnapshotTo(&buf); err != nil {
			return err
		}
		enc = append(enc, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := analysis.RestoreStreaming(ctx, opts, bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		dec = append(dec, time.Since(t0).Seconds())
	}
	mb := float64(buf.Len()) / (1 << 20)
	l.set("snapshot.encode_mb_per_s", mb/median(enc), "%.3f MB in %.4f s (median of 3)", mb, median(enc))
	l.set("snapshot.decode_mb_per_s", mb/median(dec), "%.3f MB in %.4f s (median of 3)", mb, median(dec))
	l.set("snapshot.state_mb", mb, "%d records' state", len(recs))
	return nil
}

// setDrive fills the drive metrics from one coordinator run.
func setDrive(sp *spec, out *shardsOut, l *layerSet) {
	mean := ratio(sum(out.attempts), float64(len(out.attempts)))
	l.set("drive.attempt_s.p50", median(out.attempts), "%d ok attempts", len(out.attempts))
	l.set("drive.attempt_s.max", maxOf(out.attempts), "%d ok attempts", len(out.attempts))
	l.set("drive.shard_skew", ratio(maxOf(out.attempts), mean), "max %.4f s / mean %.4f s", maxOf(out.attempts), mean)
	l.set("drive.merge_s", out.merge, "last attempt end to Run's return")
	l.set("drive.read_amplification", ratio(float64(out.readBytes), float64(sp.Bytes)), "%d bytes read by workers / %d input bytes", out.readBytes, sp.Bytes)
	l.set("drive.partial_mb", float64(out.partialBytes)/(1<<20), "%d partial bytes", out.partialBytes)
	l.set("drive.retries", float64(out.res.Retries), "%d attempts launched", out.res.Attempts)
}

// setQuery fills the query metrics from one life.
func setQuery(out *lifeOut, prefix int64, l *layerSet) {
	l.set("query.drain_records_per_s", ratio(float64(prefix), median(out.drain)), "%d records in %.4f s (median of %d)", prefix, median(out.drain), len(out.drain))
	l.set("query.eof_cut_s", median(out.cut), "median of %d cuts", len(out.cut))
	l.set("query.cut_mb", float64(out.cutBytes)/(1<<20), "%d bytes", out.cutBytes)
	l.set("query.restore_s", median(out.restore), "median of %d restarts", len(out.restore))
	for _, w := range dashWindows {
		l.set("query.fold_ms."+w, median(out.fold[w]), "median of %d folds", len(out.fold[w]))
	}
	l.set("query.view_ms.full", median(out.viewFull), "median of %d renders", len(out.viewFull))
	l.set("query.http_ms", median(out.http), "median of %d cached fetches", len(out.http))
	l.set("query.folds_per_advance", ratio(float64(out.misses), float64(out.advances)), "%d misses over %d advances", out.misses, out.advances)
	l.set("query.cache_hit_frac", ratio(float64(out.hits), float64(out.hits+out.misses)), "%d hits, %d misses", out.hits, out.misses)
}

// probeQuery runs a short carqueryd life over the input: nine tenths
// drained and cut, one restart, then two live advances with the
// dashboard and the query probes at each.
func probeQuery(sp *spec, l *layerSet) error {
	out, err := serveLife(sp, lifeConfig{ctx: sp.serveContext(), prefix: sp.Records * 9 / 10, restores: 1, maxAdvances: 2, probeEvery: 1})
	if err != nil {
		return err
	}
	if out.advances == 0 {
		return fmt.Errorf("query probe saw no live advance")
	}
	setQuery(out, sp.Records*9/10, l)
	return nil
}

// setRuntime fills the runtime metrics of a traced pass.
func setRuntime(rt rtStats, records int64, l *layerSet) {
	l.set("runtime.alloc_bytes_per_rec", rt.AllocBytes/float64(records), "%.0f bytes over %d records", rt.AllocBytes, records)
	l.set("runtime.gc_cpu_frac", rt.GCCPUFrac, "GC CPU / total CPU of the process")
	l.set("runtime.heap_peak_mb", rt.HeapPeakMB, "peak of 5 ms samples")
}

// finishTrace writes the spans and assembles the traced result.
func finishTrace(sp *spec, l *layerSet, tr *tracer, attempted, failed int64) (*childResult, error) {
	for _, name := range perLayerNames() {
		if _, ok := l.m[name]; !ok {
			return nil, fmt.Errorf("traced run left %s unmeasured", name)
		}
	}
	if err := tr.write(filepath.Join(sp.Dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	return &childResult{Attempted: attempted, Failed: failed, Metrics: l.m, Notes: l.table(tr)}, nil
}

// hashLoad is a deterministic load source for scenes without a load
// table: utilization is a hash of (cell, bin).
type hashLoad struct{}

func (hashLoad) Utilization(cell radio.CellKey, bin int) float64 {
	h := uint64(cell)*0x9E3779B97F4A7C15 + uint64(bin)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return float64(h%1000) / 1000
}

func (hashLoad) BusyThreshold() float64 { return 0.80 }

// topCells is the n most-used cells of the records, the clustering
// population where no load model names very busy cells.
func topCells(recs []cdr.Record, n int) []radio.CellKey {
	count := map[radio.CellKey]int{}
	for _, r := range recs {
		count[r.Cell]++
	}
	cells := make([]radio.CellKey, 0, len(count))
	for c := range count {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if count[cells[i]] != count[cells[j]] {
			return count[cells[i]] > count[cells[j]]
		}
		return cells[i] < cells[j]
	})
	return cells[:min(n, len(cells))]
}

// ---------------------------------------------------------------------------
// Traced runs.

// traceStudy alternates two untraced and two traced study passes (the
// trace overhead), takes the cdr, analysis, report and runtime metrics
// from the last traced pass and probes the rest.
func traceStudy(sp *spec) (*childResult, error) {
	load, err := readLoadTable(sp.LoadTable)
	if err != nil {
		return nil, err
	}
	ctx := sp.batchContext(load)
	l := newLayerSet("study")
	var (
		untraced, traced []float64
		tr               *tracer
		pass             *studyOut
		rt               rtStats
		chk              checker
	)
	for i := 0; i < 2; i++ {
		runtime.GC()
		u, err := runStudy(sp, ctx, studyRun{workers: nproc(), ckpt: ckptEvery, obs: true, render: true})
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, u.wall)
		chk.add(outcome{u.rep, u.ingest})
		runtime.GC()
		tr = newTracer(fmt.Sprintf("study-%d-%d", sp.Seed, i))
		root := tr.begin("study", 0)
		probe := startRuntimeProbe()
		pass, err = runStudy(sp, ctx, studyRun{workers: nproc(), ckpt: ckptEvery, obs: true, render: true, tr: tr, parent: root})
		rt = probe.finish()
		tr.end(root)
		if err != nil {
			return nil, err
		}
		traced = append(traced, pass.wall)
		plant(sp, pass.rep, i == 0)
		chk.add(outcome{pass.rep, pass.ingest})
	}
	_, readSelf, reads := tr.byName("cdr.read")
	l.set("cdr.read_s", readSelf, "%d Read calls", reads)
	l.set("cdr.quarantined", float64(pass.ingest.QuarantinedTotal()), "of %d input records", sp.Records)
	_, engSelf, _ := tr.byName("analysis.engine")
	l.set("analysis.engine_s", engSelf, "engine wall %.4f s minus reads", pass.engine)
	_, render, _ := tr.byName("report.render")
	l.set("report.render_s", render, "%d-byte document", len(pass.doc))
	f, base := overheadFrac(traced, untraced)
	l.set("obs.trace_overhead_frac", f, "%s", base)
	setRuntime(rt, sp.Records, l)

	if err := probeCDR(sp, l, false); err != nil {
		return nil, err
	}
	if err := probeAnalysis(sp, ctx, ctx, sp.BusyCells, l, false); err != nil {
		return nil, err
	}
	// The pass's own registry gives the study setting's checkpoint size.
	b := pass.reg.Counter("cellcars_checkpoint_bytes_total").Value()
	w := pass.reg.Counter("cellcars_checkpoint_writes_total").Value()
	l.set("analysis.checkpoint_bytes", ratio(float64(b), float64(w)), "%d bytes over %d checkpoints", b, w)
	if err := probeSnapshot(sp, ctx, l); err != nil {
		return nil, err
	}
	dout, err := runShards(sp, 1000, nil, 0)
	if err != nil {
		return nil, err
	}
	setDrive(sp, dout, l)
	if err := probeQuery(sp, l); err != nil {
		return nil, err
	}

	ref, refIngest, err := studyReference(sp, ctx)
	if err != nil {
		return nil, err
	}
	failed := chk.failed(outcome{ref, refIngest}, equalIngest)
	return finishTrace(sp, l, tr, 4, failed)
}

// traceShards alternates two untraced and two traced coordinator runs,
// takes the drive, report and runtime metrics from the last traced one
// and probes the rest.
func traceShards(sp *spec) (*childResult, error) {
	load, err := readLoadTable(sp.LoadTable)
	if err != nil {
		return nil, err
	}
	l := newLayerSet("shards")
	var (
		untraced, traced  []float64
		tr                *tracer
		pass              *shardsOut
		rt                rtStats
		chk               checker
		attempted, failed int64
	)
	for i := 0; i < 2; i++ {
		runtime.GC()
		u, err := runShards(sp, 2*i, nil, 0)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, u.wall)
		chk.add(outcome{u.res.Report, shardsIngest(u.res)})
		runtime.GC()
		tr = newTracer(fmt.Sprintf("shards-%d-%d", sp.Seed, i))
		root := tr.begin("shards", 0)
		probe := startRuntimeProbe()
		pass, err = runShards(sp, 2*i+1, tr, root)
		rt = probe.finish()
		tr.end(root)
		if err != nil {
			return nil, err
		}
		traced = append(traced, pass.wall)
		plant(sp, pass.res.Report, i == 0)
		chk.add(outcome{pass.res.Report, shardsIngest(pass.res)})
		for _, o := range []*shardsOut{u, pass} {
			attempted += 1 + int64(o.res.Attempts)
			failed += o.failedAttempts
		}
	}
	setDrive(sp, pass, l)
	l.set("cdr.quarantined", float64(pass.res.IngestQuarantined), "of %d input records", sp.Records)
	_, render, _ := tr.byName("report.render")
	l.set("report.render_s", render, "%d-byte document", len(pass.doc))
	f, base := overheadFrac(traced, untraced)
	l.set("obs.trace_overhead_frac", f, "%s", base)
	setRuntime(rt, sp.Records, l)

	if err := probeCDR(sp, l, true); err != nil {
		return nil, err
	}
	if err := probeAnalysis(sp, sp.batchContext(nil), sp.batchContext(load), sp.BusyCells, l, true); err != nil {
		return nil, err
	}
	if err := probeSnapshot(sp, sp.batchContext(nil), l); err != nil {
		return nil, err
	}
	if err := probeQuery(sp, l); err != nil {
		return nil, err
	}

	ref, refIngest, err := studyReference(sp, sp.batchContext(nil))
	if err != nil {
		return nil, err
	}
	failed += chk.failed(outcome{ref, refIngest}, sameShardsIngest)
	return finishTrace(sp, l, tr, attempted, failed)
}

// traceServe runs one untraced and one traced life (the trace
// overhead), takes the cdr, query and runtime metrics from the traced
// one and probes the rest.
func traceServe(sp *spec) (*childResult, error) {
	ctx := sp.serveContext()
	l := newLayerSet("serve")
	runtime.GC()
	u, err := serveLife(sp, lifeConfig{ctx: ctx, prefix: sp.PrefixRecords, coldStarts: serveColdStarts, restores: serveRestores})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer(fmt.Sprintf("serve-%d", sp.Seed))
	root := tr.begin("serve", 0)
	probe := startRuntimeProbe()
	pass, err := serveLife(sp, lifeConfig{ctx: ctx, prefix: sp.PrefixRecords, coldStarts: serveColdStarts, restores: serveRestores, probeEvery: 6, tr: tr, parent: root})
	rt := probe.finish()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if sp.Plant {
		pass.final[dashKey("full", "90d")] = append(bytes.Clone(pass.final[dashKey("full", "90d")]), ' ')
	}

	_, readSelf, reads := tr.byName("cdr.read")
	l.set("cdr.read_s", readSelf, "%d Read calls", reads)
	l.set("cdr.skip_s", median(pass.skip), "median of %d restarts", len(pass.skip))
	setQuery(pass, sp.PrefixRecords, l)
	f, base := overheadFrac([]float64{pass.wall}, []float64{u.wall})
	l.set("obs.trace_overhead_frac", f, "%s", base)
	setRuntime(rt, pass.records, l)

	recs, ist, err := acceptedRecords(sp)
	if err != nil {
		return nil, err
	}
	l.set("cdr.quarantined", float64(ist.QuarantinedTotal()), "of %d input records", sp.Records)
	stageCtx := ctx
	stageCtx.Load = hashLoad{}
	if err := probeAnalysis(sp, ctx, stageCtx, topCells(recs, 8), l, true); err != nil {
		return nil, err
	}
	if err := probeSnapshot(sp, ctx, l); err != nil {
		return nil, err
	}
	dout, err := runShards(sp, 1000, nil, 0)
	if err != nil {
		return nil, err
	}
	setDrive(sp, dout, l)
	runtime.GC()
	rep, err := analysis.NewEngine(ctx, analysis.EngineOptions{RunOptions: analysis.RunOptions{Seed: 1, RareDays: sp.rareDays()}}).Run(recs)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	doc := renderStudy(sp, ctx, rep, ist)
	l.set("report.render_s", time.Since(t0).Seconds(), "%d-byte document", len(doc))

	var failed int64
	for _, o := range []*lifeOut{u, pass} {
		first, final, err := serveReference(sp, ctx, o.firstAt, o.finalAt)
		if err != nil {
			return nil, err
		}
		failed += o.bad + mismatches(o.first, first) + mismatches(o.final, final)
	}
	return finishTrace(sp, l, tr, 2+u.requests+pass.requests, failed)
}

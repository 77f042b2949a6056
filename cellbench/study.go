package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/report"
)

// studyRun configures one pass of the study path.
type studyRun struct {
	workers int
	ckpt    int64 // checkpoint interval; 0: checkpoints off
	obs     bool  // attach a registry, as the CLI always does
	render  bool
	tr      *tracer
	parent  int
}

// studyOut is one pass's output and timings (seconds).
type studyOut struct {
	rep    *analysis.Report
	ingest cdr.IngestStats
	doc    string
	reg    *obs.Registry
	read   *timedReader

	setup, engine, wall, cpu float64
}

// runStudy is caranalyze's durable path: registry, engine, resilient
// reader over the binary file, RunReaderCheckpointed, then the
// Markdown report rendered with report.Render.
func runStudy(sp *spec, ctx analysis.Context, r studyRun) (*studyOut, error) {
	out := &studyOut{}
	cpu0, t0 := cpuSeconds(), time.Now()
	setupID := r.tr.begin("setup", r.parent)
	if r.obs {
		out.reg = obs.New()
	}
	eng := analysis.NewEngine(ctx, studyOptions(sp, out.reg, r.workers))
	rr, f, err := sp.openInput(out.reg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r.tr.end(setupID)
	t1 := time.Now()

	var src cdr.Reader = rr
	if r.tr != nil {
		out.read = &timedReader{r: rr}
		src = out.read
	}
	cfg := analysis.CheckpointConfig{}
	if r.ckpt > 0 {
		cfg = analysis.CheckpointConfig{Path: filepath.Join(sp.Dir, "study.ckpt"), Every: r.ckpt}
		os.Remove(cfg.Path)
	}
	engID := r.tr.begin("analysis.engine", r.parent)
	rep, err := eng.RunReaderCheckpointed(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("study engine: %w", err)
	}
	if out.read != nil {
		out.read.span(r.tr, "cdr.read", engID)
	}
	r.tr.end(engID)
	t2 := time.Now()
	out.rep, out.ingest = rep, rr.Stats()

	if r.render {
		id := r.tr.begin("report.render", r.parent)
		out.doc = renderStudy(sp, ctx, rep, out.ingest)
		r.tr.end(id)
	}
	t3 := time.Now()
	out.setup, out.engine, out.wall = secs(t1.Sub(t0)), secs(t2.Sub(t1)), secs(t3.Sub(t0))
	out.cpu = cpuSeconds() - cpu0
	return out, nil
}

func studyOptions(sp *spec, reg *obs.Registry, workers int) analysis.EngineOptions {
	return analysis.EngineOptions{
		RunOptions: analysis.RunOptions{Seed: 1, RareDays: sp.rareDays(), BusyCells: sp.BusyCells, Obs: reg},
		Workers:    workers,
	}
}

// renderStudy renders the report as caranalyze -md does, with a fixed
// stamp so two renders of one report are byte-identical.
func renderStudy(sp *spec, ctx analysis.Context, rep *analysis.Report, ist cdr.IngestStats) string {
	q := analysis.NewDataQuality(ist, int64(rep.RawRecords-rep.CleanRecords), rep.Presence, ctx.Period)
	q.StageErrors = rep.StageErrors
	return report.Render(rep, ctx, report.Options{
		Title:            "cellcars reproduction report",
		SceneDescription: fmt.Sprintf("%d records over %d days (seed %d)", rep.RawRecords, sp.Days, sp.Seed),
		Now:              sceneStart,
		Quality:          q,
	})
}

// studyReference is the untimed reference: one worker, no
// checkpoints, no registry, same input and ingest configuration.
func studyReference(sp *spec, ctx analysis.Context) (*analysis.Report, cdr.IngestStats, error) {
	opts := studyOptions(sp, nil, 1)
	if ctx.Load == nil {
		opts.BusyCells = nil
	}
	eng := analysis.NewEngine(ctx, opts)
	rr, f, err := sp.openInput(nil)
	if err != nil {
		return nil, cdr.IngestStats{}, err
	}
	defer f.Close()
	rep, err := eng.RunReader(rr)
	return rep, rr.Stats(), err
}

// outcome is one checked output: a report (Profile cleared) with the
// ingest counters that came with it.
type outcome struct {
	rep    *analysis.Report
	ingest cdr.IngestStats
}

// checker groups equal outputs so a run keeps one copy per distinct
// output, then judges every group against the reference once.
type checker struct {
	groups []outcome
	counts []int64
	errs   int64
}

func (c *checker) add(o outcome) {
	o.rep.Profile = nil
	for i, g := range c.groups {
		if reflect.DeepEqual(g.rep, o.rep) && g.ingest == o.ingest {
			c.counts[i]++
			return
		}
	}
	c.groups = append(c.groups, o)
	c.counts = append(c.counts, 1)
}

// failed counts outputs that differ from the reference, plus errors.
func (c *checker) failed(ref outcome, sameIngest func(a, b cdr.IngestStats) bool) int64 {
	n := c.errs
	for i, g := range c.groups {
		if !reflect.DeepEqual(g.rep, ref.rep) || !sameIngest(g.ingest, ref.ingest) {
			n += c.counts[i]
		}
	}
	return n
}

func equalIngest(a, b cdr.IngestStats) bool { return a == b }

// plant alters one report field: the self-test that a wrong output is
// counted as failed.
func plant(sp *spec, rep *analysis.Report, rep0 bool) {
	if sp.Plant && rep0 {
		rep.RawRecords++
	}
}

// measureStudy runs study reps until the spec's seconds are spent
// (at least three), then checks every report against the reference.
func measureStudy(sp *spec) (*childResult, error) {
	load, err := readLoadTable(sp.LoadTable)
	if err != nil {
		return nil, err
	}
	ctx := sp.batchContext(load)
	var (
		wall, engine, cpu, setup, rss []float64
		chk                           checker
	)
	start := time.Now()
	for rep := 0; rep < 3 || time.Now().Before(sp.deadline(start)); rep++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		s, err := timeSetup(setupSamples, func() error {
			reg := obs.New()
			analysis.NewEngine(ctx, studyOptions(sp, reg, nproc()))
			_, f, err := sp.openInput(reg)
			if err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, s...)
		out, err := runStudy(sp, ctx, studyRun{workers: nproc(), ckpt: ckptEvery, obs: true, render: true})
		if err != nil {
			chk.errs++
			continue
		}
		if !strings.Contains(out.doc, "## Preprocessing") {
			chk.errs++
		}
		plant(sp, out.rep, rep == 0)
		chk.add(outcome{out.rep, out.ingest})
		wall = append(wall, out.wall)
		engine = append(engine, out.engine)
		cpu = append(cpu, out.cpu)
		setup = append(setup, out.setup)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
	}
	attempted := int64(len(wall)) + chk.errs
	if len(wall) == 0 {
		return nil, fmt.Errorf("every study rep failed")
	}

	ref, refIngest, err := studyReference(sp, ctx)
	if err != nil {
		return nil, fmt.Errorf("study reference: %w", err)
	}
	failed := chk.failed(outcome{ref, refIngest}, equalIngest)
	m := batchMetrics(sp, wall, engine, cpu, setup, rss)
	return &childResult{Attempted: attempted, Failed: failed, Metrics: m, Notes: []string{repLine(wall), projection(m)}}, nil
}

// batchMetrics turns per-rep timings of a batch workload into its
// end-to-end metrics. A batch report is fresh only once the whole
// run has finished, so a rep's wall time is its freshness latency.
func batchMetrics(sp *spec, wall, ingest, cpu, setup, rss []float64) map[string]metric {
	n := float64(sp.Records)
	rate := func(d []float64) []float64 {
		out := make([]float64, len(d))
		for i, x := range d {
			out[i] = n / x
		}
		return out
	}
	ms := make([]float64, len(wall))
	perM := make([]float64, len(cpu))
	for i := range wall {
		ms[i] = wall[i] * 1000
		perM[i] = cpu[i] / n * 1e6
	}
	return map[string]metric{
		"records_per_s":        {median(rate(wall)), "1/s"},
		"cpu_s_per_mrec":       {median(perM), "s"},
		"setup_s":              {median(setup), "s"},
		"peak_rss_mb":          {median(rss), "MB"},
		"ingest_records_per_s": {median(rate(ingest)), "1/s"},
		"fresh_p50_ms":         {median(ms), "ms"},
		"fresh_p90_ms":         {percentile(ms, 0.9), "ms"},
	}
}

// repLine lists a batch run's rep wall times in run order.
func repLine(wall []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d reps, wall s:", len(wall))
	for _, w := range wall {
		fmt.Fprintf(&b, " %.3f", w)
	}
	return b.String()
}

// paperRecords is the paper's data set size: 1.1B CDRs from 1M cars
// over 90 days.
const paperRecords = 1.1e9

// projection prints the paper-scale projection beside study: it is
// neither a metric nor gated.
func projection(m map[string]metric) string {
	rate, cpu := m["records_per_s"].Value, m["cpu_s_per_mrec"].Value
	return fmt.Sprintf("projection (not a metric): %.2g records at %.0f records/s = %.1f h wall, at %.3f CPU-s per million records = %.1f CPU-hours",
		paperRecords, rate, paperRecords/rate/3600, cpu, paperRecords/1e6*cpu/3600)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/drive"
	"cellcars/internal/obs"
	"cellcars/internal/report"
)

// shardsOut is one coordinator run's output and timings (seconds).
type shardsOut struct {
	res    *drive.Result
	status drive.Status
	doc    string

	setup, ingest, merge, wall, cpu float64
	// attempts are the ok attempts' durations; failedAttempts counts
	// attempts that crashed, timed out or wrote a bad snapshot.
	attempts       []float64
	failedAttempts int64
	// readBytes and partialBytes sum what the workers reported;
	// workerPeakMB is the largest worker's peak resident memory.
	readBytes, partialBytes int64
	workerPeakMB            float64
}

// workerIO is what a worker writes beside its partial: the bytes its
// process read (from /proc/self/io), the partial's size and the
// worker's peak resident memory.
type workerIO struct {
	ReadBytes    int64   `json:"read_bytes"`
	PartialBytes int64   `json:"partial_bytes"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
}

// driveConfig is cardrive's configuration with its flag defaults,
// re-executing this binary as the worker.
func driveConfig(sp *spec, specPath, workDir string, reg *obs.Registry) (drive.Config, error) {
	self, err := os.Executable()
	if err != nil {
		return drive.Config{}, err
	}
	return drive.Config{
		Inputs:            []string{sp.Input},
		MaxAttempts:       3,
		RetryBackoff:      250 * time.Millisecond,
		MaxBackoff:        30 * time.Second,
		JitterSeed:        sp.Seed | 1,
		SpeculativeFactor: 1.5,
		SpeculativeMin:    3,
		MergeFanIn:        8,
		WorkDir:           workDir,
		Obs:               reg,
		Tag:               fmt.Sprintf("days=%d seed=%d", sp.Days, sp.Seed),
		Command: func(ws drive.WorkerSpec) *exec.Cmd {
			args := []string{"-worker", specPath,
				strconv.Itoa(ws.Shard), strconv.Itoa(ws.Shards), strconv.Itoa(ws.Attempt), ws.Out}
			cmd := exec.Command(self, append(args, ws.Inputs...)...)
			cmd.SysProcAttr = dieWithParent()
			return cmd
		},
	}, nil
}

// runShards drives the input through the shard coordinator once and
// renders the merged report as cardrive -md does.
func runShards(sp *spec, run int, tr *tracer, parent int) (*shardsOut, error) {
	specPath := filepath.Join(sp.Dir, "spec.json")
	workDir := filepath.Join(sp.Dir, fmt.Sprintf("drive-%d", run))
	ioDir := filepath.Join(sp.Dir, fmt.Sprintf("drive-io-%d", run))
	defer os.RemoveAll(workDir)
	defer os.RemoveAll(ioDir)
	if err := os.MkdirAll(ioDir, 0o755); err != nil {
		return nil, err
	}
	ctx := sp.batchContext(nil)

	out := &shardsOut{}
	cpu0, t0 := cpuSeconds(), time.Now()
	id := tr.begin("drive.new", parent)
	reg := obs.New()
	cfg, err := driveConfig(sp, specPath, workDir, reg)
	if err != nil {
		return nil, err
	}
	coord, err := drive.New(cfg)
	if err != nil {
		return nil, err
	}
	tr.end(id)
	t1 := time.Now()
	runID := tr.begin("drive.run", parent)
	res, err := coord.Run(context.Background())
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("drive run: %w", err)
	}
	out.res, out.status = res, coord.Status()

	lastEnd := t1
	for _, sh := range out.status.Shards {
		for _, a := range sh.Attempts {
			end := a.Started.Add(time.Duration(a.Seconds * float64(time.Second)))
			switch a.Outcome {
			case "ok":
				out.attempts = append(out.attempts, a.Seconds)
				if end.After(lastEnd) {
					lastEnd = end
				}
			case "canceled":
			default:
				out.failedAttempts++
			}
			tr.aggregate("drive.attempt", runID, a.Started, end, time.Duration(a.Seconds*float64(time.Second)), 1)
		}
	}
	tr.aggregate("drive.merge", runID, lastEnd, t2, t2.Sub(lastEnd), 1)
	tr.end(runID)

	rid := tr.begin("report.render", parent)
	out.doc = renderShards(sp, ctx, res)
	tr.end(rid)
	t3 := time.Now()

	out.setup, out.ingest, out.merge = secs(t1.Sub(t0)), secs(lastEnd.Sub(t1)), secs(t2.Sub(lastEnd))
	out.wall, out.cpu = secs(t3.Sub(t0)), cpuSeconds()-cpu0

	entries, err := os.ReadDir(ioDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(ioDir, e.Name()))
		if err != nil {
			return nil, err
		}
		var wio workerIO
		if err := json.Unmarshal(buf, &wio); err != nil {
			return nil, fmt.Errorf("worker io %s: %w", e.Name(), err)
		}
		out.readBytes += wio.ReadBytes
		out.partialBytes += wio.PartialBytes
		out.workerPeakMB = max(out.workerPeakMB, wio.PeakRSSMB)
	}
	return out, nil
}

// renderShards renders the merged report with cardrive's data-quality
// accounting.
func renderShards(sp *spec, ctx analysis.Context, res *drive.Result) string {
	rep := res.Report
	q := &analysis.DataQuality{
		RecordsRead:      res.Records,
		GhostsDropped:    int64(rep.RawRecords - rep.CleanRecords),
		QuarantinedTotal: res.IngestQuarantined,
		StageErrors:      rep.StageErrors,
		ExcludedShards:   res.Excluded,
	}
	if len(rep.Presence.CarsFrac) > 0 {
		q.Gaps = analysis.DetectCoverageGaps(rep.Presence, ctx.Period, 0)
	}
	return report.Render(rep, ctx, report.Options{
		Title:            "cellcars distributed report",
		SceneDescription: fmt.Sprintf("distributed run, %d shards, %d records", res.Done+res.Quarantined, res.Records),
		Now:              sceneStart,
		Quality:          q,
	})
}

// shardsIngest is what a coordinator run reports of ingest: records
// absorbed by the shards and the quarantine count of one full scan.
func shardsIngest(res *drive.Result) cdr.IngestStats {
	var s cdr.IngestStats
	s.Read = res.Records
	s.Quarantined[0] = res.IngestQuarantined
	return s
}

func sameShardsIngest(a, b cdr.IngestStats) bool {
	return a.Read == b.Read && a.QuarantinedTotal() == b.QuarantinedTotal()
}

// measureShards runs coordinator reps until the spec's seconds are
// spent (at least three). Every run and every shard attempt is an
// attempted operation.
func measureShards(sp *spec) (*childResult, error) {
	var (
		wall, ingest, cpu, setup []float64
		chk                      checker
		rss                      []float64
		attempted, failed        int64
	)
	start := time.Now()
	for rep := 0; rep < 3 || time.Now().Before(sp.deadline(start)); rep++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		s, err := timeSetup(setupSamples, func() error {
			cfg, err := driveConfig(sp, "", filepath.Join(sp.Dir, "unused"), obs.New())
			if err != nil {
				return err
			}
			_, err = drive.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		setup = append(setup, s...)
		attempted++
		out, err := runShards(sp, rep, nil, 0)
		if err != nil {
			chk.errs++
			continue
		}
		attempted += int64(out.res.Attempts)
		failed += out.failedAttempts
		if out.res.Quarantined > 0 || !strings.Contains(out.doc, "## Preprocessing") {
			chk.errs++
		}
		plant(sp, out.res.Report, rep == 0)
		chk.add(outcome{out.res.Report, shardsIngest(out.res)})
		if out.workerPeakMB == 0 {
			return nil, fmt.Errorf("no shard worker reported its peak resident memory")
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, max(peak, out.workerPeakMB))
		wall = append(wall, out.wall)
		ingest = append(ingest, out.ingest)
		cpu = append(cpu, out.cpu)
		setup = append(setup, out.setup)
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("every shards rep failed")
	}
	ref, refIngest, err := studyReference(sp, sp.batchContext(nil))
	if err != nil {
		return nil, fmt.Errorf("shards reference: %w", err)
	}
	failed += chk.failed(outcome{ref, refIngest}, sameShardsIngest)
	return &childResult{Attempted: attempted, Failed: failed,
		Metrics: batchMetrics(sp, wall, ingest, cpu, setup, rss), Notes: []string{repLine(wall)}}, nil
}

// runWorkerMode is one shard attempt, as caranalyze -partial runs it:
// drive.RunWorker, then the stats line the coordinator parses. It also
// records the bytes its process read and its partial's size for the
// traced run's read amplification.
func runWorkerMode(specPath string, args []string) error {
	if len(args) < 5 {
		return fmt.Errorf("worker wants shard, shards, attempt, out and inputs; got %q", args)
	}
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return err
	}
	var nums [3]int
	for i := range nums {
		if nums[i], err = strconv.Atoi(args[i]); err != nil {
			return fmt.Errorf("worker argument %q: %w", args[i], err)
		}
	}
	reg := obs.New()
	st, err := drive.RunWorker(drive.WorkerConfig{
		Inputs:  args[4:],
		Shard:   nums[0],
		Shards:  nums[1],
		Attempt: nums[2],
		Out:     args[3],
		Ctx:     sp.batchContext(nil),
		Opts:    analysis.RunOptions{Seed: 1, RareDays: sp.rareDays(), Obs: reg},
		Ingest:  sp.ingestConfig(reg),
	})
	if err != nil {
		return err
	}
	drive.PrintStats(os.Stdout, st)
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	wio := workerIO{ReadBytes: procReadBytes(), PeakRSSMB: peak}
	if fi, err := os.Stat(args[3]); err == nil {
		wio.PartialBytes = fi.Size()
	}
	// The coordinator's work directory sits beside the io directory
	// named for the same run.
	ioDir := strings.Replace(filepath.Dir(args[3]), "drive-", "drive-io-", 1)
	out, _ := json.Marshal(wio)
	return os.WriteFile(filepath.Join(ioDir, fmt.Sprintf("shard%d-attempt%d-%d.json", nums[0], nums[2], os.Getpid())), out, 0o644)
}

// procReadBytes is the rchar line of /proc/self/io: bytes this process
// read through read(2) and friends. 0 where procfs is unavailable.
func procReadBytes() int64 {
	buf, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

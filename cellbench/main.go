// Command cellbench is the cellcars benchmark. It runs one workload
// per invocation, checks every output against an untimed reference,
// and prints one JSON result line last on stdout:
//
//	cellbench --workload study --seed 1 --seconds 10 --trace 0
//
// Workloads (see layers.json for the full map):
//
//	study   a damaged binary CDR file through the durable batch path
//	        (ResilientReader → Engine.RunReaderCheckpointed → report.Render)
//	shards  the same file through the shard coordinator (drive.New.Run)
//	        with this binary re-executed as the worker
//	serve   carqueryd's life on a 90-day scene: cold start + EOF cut,
//	        warm restart, then a live tail with a closed-loop dashboard
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// and the rendered per-layer table is printed before it.
//
// The process generating the inputs (from --seed, via internal/synth)
// is never the one measured: each run re-executes this binary as a
// child that sees only the generated files and reads its own peak
// memory (VmHWM, which exec does not inherit), so the generator's
// memory stays out of peak_rss_mb. The child computes the reference
// only after its timed reps, once their peak memory has been read.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		traced   = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics instead of end-to-end ones")

		child     = flag.String("child", "", "internal: run the measured side of a workload from this spec file")
		worker    = flag.String("worker", "", "internal: run one shard attempt (drive.RunWorker) from this spec file")
		summarize = flag.String("summarize", "", "print per-workload medians and quartiles of the result records in this directory, refusing mixed cohorts")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child)
	case *worker != "":
		err = runWorkerMode(*worker, flag.Args())
	case *summarize != "":
		err = summarizeResults(os.Stdout, *summarize)
	default:
		err = runBenchmark(os.Stdout, options{
			Workload: *workload,
			Seed:     *seed,
			Seconds:  *seconds,
			Trace:    *traced == 1,
			WorkDir:  filepath.Join(".bench_build", "work"),
			Results:  filepath.Join(".bench_build", "results"),
			Scale:    1,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cellbench: %v\n", err)
		os.Exit(1)
	}
}

// options is one benchmark invocation. From the command line, inputs
// and scratch files go under .bench_build/work, each run's
// cohort-stamped record under .bench_build/results, and scenes are at
// full size; tests shrink the scenes with Scale and keep no records.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	WorkDir  string
	Results  string // empty: keep no record
	Scale    float64
	// Plant alters one field of the measured output before it is
	// checked — the self-test that a mismatch reaches failed.
	Plant bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBenchmark generates the workload's inputs, runs the measured
// child over them, and prints the result.
func runBenchmark(out io.Writer, o options) error {
	wl, ok := workloads[o.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, strings.Join(workloadNames(), ", "))
	}
	if o.Seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.Scale <= 0 {
		return fmt.Errorf("--scale must be positive")
	}
	dir := filepath.Join(o.WorkDir, fmt.Sprintf("%s-%d-%d", o.Workload, o.Seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cohort, err := newCohort(o)
	if err != nil {
		return err
	}
	sp, err := wl.scene(o, dir)
	if err != nil {
		return fmt.Errorf("generate %s scene: %w", o.Workload, err)
	}
	cohort.InputDigest = sp.Digest
	fmt.Fprintf(os.Stderr, "cellbench: %s seed %d: %d input records (%s)\n", o.Workload, o.Seed, sp.Records, sp.Digest[:16])

	cr, err := spawnChild(sp)
	if err != nil {
		return err
	}
	if cr.Err != "" {
		return fmt.Errorf("%s: %s", o.Workload, cr.Err)
	}
	res := result{Correct: cr.Failed == 0, Attempted: cr.Attempted, Failed: cr.Failed, Metrics: cr.Metrics}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	if err := checkMetricSet(o.Trace, res.Metrics); err != nil {
		return err
	}
	for _, line := range cr.Notes {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "failed_frac %.6g (%d of %d operations failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(out, "cohort %s\n", cohort)
	if o.Results != "" {
		if err := writeRecord(o.Results, cohort, res, cr.Notes); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// childResult is what the measured child writes back.
type childResult struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are human-readable lines printed before the result line:
	// the per-layer table, the paper-scale projection.
	Notes []string `json:"notes,omitempty"`
	// Err is a fatal error: the run produced no result.
	Err string `json:"err,omitempty"`
}

// spawnChild runs this binary as the measured child over the spec and
// returns what it wrote back. The child's stdout is folded into our
// stderr so the result line stays last on stdout.
func spawnChild(sp *spec) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(sp.Dir, "spec.json")
	buf, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, buf, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", specPath)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("measured child: %w", err)
	}
	buf, err = os.ReadFile(sp.resultPath())
	if err != nil {
		return nil, fmt.Errorf("measured child wrote no result: %w", err)
	}
	var cr childResult
	if err := json.Unmarshal(buf, &cr); err != nil {
		return nil, fmt.Errorf("measured child result: %w", err)
	}
	return &cr, nil
}

// runChild is the measured side: it loads the spec, runs the
// workload's reps (or its traced run) and writes the result file.
func runChild(specPath string) error {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return fmt.Errorf("spec %s: %w", specPath, err)
	}
	wl, ok := workloads[sp.Workload]
	if !ok {
		return fmt.Errorf("spec names unknown workload %q", sp.Workload)
	}
	var cr *childResult
	if sp.Trace {
		cr, err = wl.traced(&sp)
	} else {
		cr, err = wl.measure(&sp)
	}
	if err != nil {
		cr = &childResult{Err: err.Error()}
	}
	out, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	return os.WriteFile(sp.resultPath(), out, 0o644)
}

// workload binds a name to its scene generator, its measured reps and
// its traced run.
type workload struct {
	scene   func(o options, dir string) (*spec, error)
	measure func(sp *spec) (*childResult, error)
	traced  func(sp *spec) (*childResult, error)
}

var workloads = map[string]workload{
	"study":  {scene: batchScene, measure: measureStudy, traced: traceStudy},
	"shards": {scene: batchScene, measure: measureShards, traced: traceShards},
	"serve":  {scene: serveScene, measure: measureServe, traced: traceServe},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkMetricSet insists the child reported exactly the declared set:
// every end-to-end metric untraced, every per-layer metric traced.
func checkMetricSet(traced bool, got map[string]metric) error {
	want := endToEnd
	if traced {
		want = perLayerNames()
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			return fmt.Errorf("metric %s missing from the result", name)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for name := range got {
			if !contains(want, name) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics in the result: %s", strings.Join(extra, ", "))
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// dieWithParent makes a started process get SIGKILL when the process
// that started it dies, so an interrupted run leaves nothing behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// nproc is the load generator's parallelism bound: engine workers,
// drive parallelism and shard count all derive from it.
func nproc() int { return runtime.GOMAXPROCS(0) }

// deadline returns when a child measuring for the spec's seconds
// should stop starting new reps.
func (sp *spec) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(sp.Seconds * float64(time.Second)))
}

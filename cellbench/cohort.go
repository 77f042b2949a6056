package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// cohort identifies what a result can be compared with: the same
// toolchain, machine shape, code and scene scale. Seed and input
// digest are recorded per result; a seed must always yield the same
// digest.
type cohort struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"numcpu"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Scale        float64 `json:"scale"`
	Seconds      float64 `json:"seconds"`
	Workload     string  `json:"workload"`
	Trace        bool    `json:"trace"`
	Seed         uint64  `json:"seed"`
	InputDigest  string  `json:"input_digest"`
}

func (c cohort) String() string {
	b, _ := json.Marshal(c)
	return string(b)
}

// key is everything two comparable results must share.
func (c cohort) key() string {
	return fmt.Sprintf("%s gomaxprocs=%d numcpu=%d commit=%s source=%s scale=%g seconds=%g",
		c.GoVersion, c.GOMAXPROCS, c.NumCPU, c.Commit, c.SourceDigest, c.Scale, c.Seconds)
}

func newCohort(o options) (cohort, error) {
	root, err := repoRoot()
	if err != nil {
		return cohort{}, err
	}
	digest, err := sourceDigest(root)
	if err != nil {
		return cohort{}, err
	}
	return cohort{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Commit:       gitCommit(root),
		SourceDigest: digest,
		Scale:        o.Scale,
		Seconds:      o.Seconds,
		Workload:     o.Workload,
		Trace:        o.Trace,
		Seed:         o.Seed,
	}, nil
}

// repoRoot finds the cellcars module root: the working directory or
// one of its parents.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if buf, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(buf), "module cellcars\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cellcars module at or above the working directory")
		}
		dir = parent
	}
}

// gitCommit is HEAD where the tree is a git checkout, else "unknown"
// (the source digest still pins the code).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the tree,
// skipping dot directories (build output, VCS metadata).
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "layers.json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		r, err := os.Open(f)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, r)
		r.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// record is one stored result.
type record struct {
	Cohort cohort `json:"cohort"`
	Result result `json:"result"`
}

// summarizeResults prints each workload's medians and quartiles over
// the stored results. Results of different cohorts are refused, not
// averaged, and so is a seed whose input digest changed.
func summarizeResults(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no result records in %s", dir)
	}
	type group struct {
		key    string
		values map[string][]float64
		units  map[string]string
		runs   int
	}
	groups := map[string]*group{}
	digests := map[string]string{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(buf, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		c := rec.Cohort
		seedKey := fmt.Sprintf("%s/%d/%g", c.Workload, c.Seed, c.Scale)
		if d, ok := digests[seedKey]; ok && d != c.InputDigest {
			return fmt.Errorf("%s: seed %d generated input %s here but %s elsewhere; refusing to combine", p, c.Seed, c.InputDigest, d)
		}
		digests[seedKey] = c.InputDigest
		name := fmt.Sprintf("%s trace=%v", c.Workload, c.Trace)
		g := groups[name]
		if g == nil {
			g = &group{key: c.key(), values: map[string][]float64{}, units: map[string]string{}}
			groups[name] = g
		}
		if g.key != c.key() {
			return fmt.Errorf("%s: cohort %q differs from %q; refusing to combine", p, c.key(), g.key)
		}
		g.runs++
		for n, m := range rec.Result.Metrics {
			g.values[n] = append(g.values[n], m.Value)
			g.units[n] = m.Unit
		}
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := groups[n]
		fmt.Fprintf(w, "%s: %d runs, cohort %s\n", n, g.runs, g.key)
		metrics := make([]string, 0, len(g.values))
		for m := range g.values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			v := g.values[m]
			if len(v) < 2 {
				fmt.Fprintf(w, "  %-40s %-12.6g (one run) %s\n", m, v[0], g.units[m])
				continue
			}
			q := quartiles(v)
			fmt.Fprintf(w, "  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f %s\n", m, q[1], q[0], q[2], ratio(q[2]-q[0], q[1]), g.units[m])
		}
	}
	return nil
}

// writeRecord stores a run's cohort-stamped result (and the per-layer
// table of a traced run) for summarizeResults.
func writeRecord(dir string, c cohort, res result, notes []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d", c.Workload, c.Seed, c.Trace, time.Now().UnixNano())
	buf, err := json.MarshalIndent(record{Cohort: c, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), buf, 0o644); err != nil {
		return err
	}
	if c.Trace {
		return os.WriteFile(filepath.Join(dir, name+".md"), []byte(strings.Join(notes, "\n")+"\n"), 0o644)
	}
	return nil
}

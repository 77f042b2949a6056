package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"cellcars/internal/analysis"
	"cellcars/internal/cdr"
	"cellcars/internal/obs"
	"cellcars/internal/radio"
	"cellcars/internal/simtime"
	"cellcars/internal/synth"
)

// Scene sizes at --scale 1, chosen so one run of each workload fits
// its time budget on a 2-CPU machine.
const (
	batchCars = 2500 // × 14 days ≈ 0.5M records
	batchDays = 14
	serveCars = 120 // × 90 days ≈ 160k records, 2160 hourly buckets
	serveDays = 90
	// serveAdvances is how many live-bucket advances phase C runs: six
	// fresh requests each, so p90 has more than ten samples beyond it.
	serveAdvances = 18
	// ckptEvery is the study's checkpoint interval (the ROADMAP's
	// target setting).
	ckptEvery = 100_000
	// Damage: one record in damageBadField gets an invalid carrier and
	// one in damageTimeRange a start years outside the study, ≈0.3% in
	// all — well under the 1% ingest budget.
	damageBadField  = 487
	damageTimeRange = 991
)

var (
	sceneStart = time.Date(2017, 1, 2, 0, 0, 0, 0, time.UTC)
	sceneTZ    = -5 * 3600
)

// spec is everything the measured child needs: the generated files
// and the study configuration. The child never sees the generator.
type spec struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Plant    bool    `json:"plant,omitempty"`
	Dir      string  `json:"dir"`

	Input   string `json:"input"`
	Records int64  `json:"records"` // records in Input, damaged ones included
	Bytes   int64  `json:"bytes"`
	Digest  string `json:"digest"`
	Days    int    `json:"days"`

	// LoadTable is the PRB utilization table (batch scenes).
	LoadTable string          `json:"load_table,omitempty"`
	BusyCells []radio.CellKey `json:"busy_cells,omitempty"`

	// PrefixRecords is what serve's cold start drains; the rest of the
	// input is the live tail of phase C.
	PrefixRecords int64 `json:"prefix_records,omitempty"`
}

func (sp *spec) resultPath() string { return filepath.Join(sp.Dir, "result.json") }

func (sp *spec) period() simtime.Period { return simtime.NewPeriod(sceneStart, sp.Days) }

// rareDays scales the Table 2 thresholds with the study length exactly
// as caranalyze and carqueryd do.
func (sp *spec) rareDays() []int { return []int{max(1, sp.Days/9), max(2, sp.Days/3)} }

// ingestConfig is caranalyze's resilient-ingest configuration: the
// default 1% budget and a week of slack around the study window.
func (sp *spec) ingestConfig(reg *obs.Registry) cdr.ResilientConfig {
	p := sp.period()
	return cdr.ResilientConfig{
		MaxBadFrac: 0.01,
		MinStart:   p.Start().AddDate(0, 0, -7),
		MaxStart:   p.End().AddDate(0, 0, 7),
		Obs:        reg,
	}
}

// openInput opens the spec's CDR file behind the resilient reader.
func (sp *spec) openInput(reg *obs.Registry) (*cdr.ResilientReader, *os.File, error) {
	f, err := os.Open(sp.Input)
	if err != nil {
		return nil, nil, err
	}
	return cdr.NewResilientReader(cdr.NewBinaryReader(f), sp.ingestConfig(reg)), f, nil
}

// world generates a synth scene for the seed.
func world(seed uint64, cars, days int) *synth.World {
	cfg := synth.DefaultConfig(cars)
	cfg.Seed = seed
	cfg.Period = simtime.NewPeriod(sceneStart, days)
	return synth.NewWorld(cfg)
}

func scaled(n int, scale float64) int { return max(1, int(math.Round(float64(n)*scale))) }

// batchScene writes the study/shards input: a synth scene as a binary
// CDR file with a fixed share of deterministically damaged records,
// plus the PRB load table filled from the synth load model.
func batchScene(o options, dir string) (*spec, error) {
	w := world(o.Seed, scaled(batchCars, o.Scale), batchDays)
	records, _, err := w.GenerateAll()
	if err != nil {
		return nil, err
	}
	for i := range records {
		switch {
		case i%damageBadField == damageBadField/2:
			records[i].Cell = records[i].Cell&^0xff | 0x0f
		case i%damageTimeRange == damageTimeRange/2:
			records[i].Start = records[i].Start.AddDate(5, 0, 0)
		}
	}
	sp := &spec{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Plant: o.Plant,
		Dir: dir, Input: filepath.Join(dir, "input.cdr"), Days: batchDays}
	if err := writeCDR(sp, records); err != nil {
		return nil, err
	}
	tbl := newLoadTable(w)
	sp.BusyCells = w.Load.VeryBusyCells()
	sp.LoadTable = filepath.Join(dir, "load.tbl")
	if err := tbl.write(sp.LoadTable); err != nil {
		return nil, err
	}
	return sp, nil
}

// serveScene writes the serve input: a clean 90-day scene, split into
// the cold-start prefix and a live tail that ends right after its
// serveAdvances-th live-bucket advance.
func serveScene(o options, dir string) (*spec, error) {
	w := world(o.Seed, scaled(serveCars, o.Scale), serveDays)
	records, _, err := w.GenerateAll()
	if err != nil {
		return nil, err
	}
	sp := &spec{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Plant: o.Plant,
		Dir: dir, Input: filepath.Join(dir, "input.cdr"), Days: serveDays}
	// The live tail starts two days before the study ends, at an hour
	// boundary, so its first record advances the live bucket.
	liveStart := sp.period().End().Add(-48 * time.Hour)
	prefix := 0
	for prefix < len(records) && records[prefix].Start.Before(liveStart) {
		prefix++
	}
	end, advances, last := prefix, 0, time.Time{}
	for end < len(records) && advances < serveAdvances {
		b := records[end].Start.Truncate(time.Hour)
		if b.After(last) {
			advances++
			last = b
		}
		end++
	}
	if advances < serveAdvances {
		return nil, fmt.Errorf("serve scene has %d live advances, want %d", advances, serveAdvances)
	}
	sp.PrefixRecords = int64(prefix)
	if err := writeCDR(sp, records[:end]); err != nil {
		return nil, err
	}
	return sp, nil
}

// writeCDR writes records as a binary CDR file and records its size,
// count and SHA-256 digest in the spec.
func writeCDR(sp *spec, records []cdr.Record) error {
	f, err := os.Create(sp.Input)
	if err != nil {
		return err
	}
	h := sha256.New()
	bw := cdr.NewBinaryWriter(io.MultiWriter(f, h))
	for _, r := range records {
		if err := bw.Write(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(sp.Input)
	if err != nil {
		return err
	}
	sp.Records, sp.Bytes = int64(len(records)), fi.Size()
	sp.Digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// loadTable is a load.Source over a precomputed utilization table:
// what load.Source says a deployment would implement over measured
// PRB counters. Filling it at set-up from the synth model lets the
// busy-time stages do real work without timing the synthetic model.
type loadTable struct {
	cells     []radio.CellKey
	index     map[radio.CellKey]int
	bins      int
	threshold float64
	util      []float64 // cell-major: util[cell*bins+bin]
}

func newLoadTable(w *synth.World) *loadTable {
	t := &loadTable{
		cells:     w.Net.AllCells(),
		bins:      w.Config.Period.NumBins(),
		threshold: w.Load.BusyThreshold(),
	}
	t.util = make([]float64, len(t.cells)*t.bins)
	for i, c := range t.cells {
		for b := 0; b < t.bins; b++ {
			t.util[i*t.bins+b] = w.Load.Utilization(c, b)
		}
	}
	t.reindex()
	return t
}

func (t *loadTable) reindex() {
	t.index = make(map[radio.CellKey]int, len(t.cells))
	for i, c := range t.cells {
		t.index[c] = i
	}
}

// Utilization returns the tabled UPRB; cells outside the network have
// none.
func (t *loadTable) Utilization(cell radio.CellKey, bin int) float64 {
	i, ok := t.index[cell]
	if !ok || bin < 0 || bin >= t.bins {
		return 0
	}
	return t.util[i*t.bins+bin]
}

func (t *loadTable) BusyThreshold() float64 { return t.threshold }

// Table file: cell count, bins, threshold, cell keys, then the
// utilizations, all little endian.
func (t *loadTable) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	hdr := []any{uint64(len(t.cells)), uint64(t.bins), t.threshold}
	for _, v := range hdr {
		binary.Write(bw, binary.LittleEndian, v)
	}
	binary.Write(bw, binary.LittleEndian, t.cells)
	binary.Write(bw, binary.LittleEndian, t.util)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLoadTable(path string) (*loadTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var n, bins uint64
	t := &loadTable{}
	for _, v := range []any{&n, &bins, &t.threshold} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("load table %s: %w", path, err)
		}
	}
	if n > 1<<24 || bins > 1<<20 {
		return nil, fmt.Errorf("load table %s: implausible size %d×%d", path, n, bins)
	}
	t.bins = int(bins)
	t.cells = make([]radio.CellKey, n)
	t.util = make([]float64, n*bins)
	if err := binary.Read(br, binary.LittleEndian, t.cells); err != nil {
		return nil, fmt.Errorf("load table %s: %w", path, err)
	}
	if err := binary.Read(br, binary.LittleEndian, t.util); err != nil {
		return nil, fmt.Errorf("load table %s: %w", path, err)
	}
	t.reindex()
	return t, nil
}

// batchContext is the study context: with the load table the ten
// stages all run; without it (shards) the load-dependent three are
// skipped, as in a cardrive worker.
func (sp *spec) batchContext(load *loadTable) analysis.Context {
	ctx := analysis.Context{Period: sp.period(), TZOffsetSeconds: sceneTZ}
	if load != nil {
		ctx.Load = load
	}
	return ctx
}

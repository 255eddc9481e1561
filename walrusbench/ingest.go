package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/obs"
)

// fsyncWindow is how many adds one window of the fsync-spread measurement
// spans: group commit fsyncs when enough log bytes accumulate, so fsyncs
// per image vary from window to window.
const fsyncWindow = 200

// ingest-disk adds a fixed number of images, addsPerSecond for each second
// of the run: about 70% of the run at the ~400 adds/s of a 2-CPU machine.
// A fixed count gives every run of one seed the same work, on a fast and
// a slow machine. After reopening, readBackSample of the added images,
// spread evenly over them, are queried back.
const (
	addsPerSecond  = 280
	readBackSample = 128
)

// runIngestDisk preloads a disk-backed single-store database with
// CreateFrom (the default group-commit durability policy), then adds fresh
// images closed-loop, one client, one at a time, and closes it. The
// correctness gate reopens the directory, requires Len to equal preload
// plus adds, and queries a sample of the added images back by image: each
// must rank itself first.
func runIngestDisk(cfg config, rep *report) error {
	nPre := cfg.scaled(960, 24)
	opts := walrus.DefaultOptions()
	items, err := genItems(cfg.seed, streamBase, 0, nPre, false)
	if err != nil {
		return err
	}
	var db *walrus.DB
	var dir string
	var setups opTimes
	for r := 0; r < setupRounds; r++ {
		if db != nil {
			if err := errors.Join(db.Close(), os.RemoveAll(dir)); err != nil {
				return err
			}
		}
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("ingest-%d", r))
		liveHeapMB()
		w := startWatch()
		if db, err = walrus.CreateFrom(dir, opts, items, 0); err != nil {
			return err
		}
		_, wallMS, cpuMS := w.stop()
		setups.add(wallMS, cpuMS)
	}
	items = nil
	rep.setup(setups, fmt.Sprintf("CPU time, median of %d CreateFrom of %d images", setupRounds, nPre))
	rep.set("heap_mb", liveHeapMB(), "live heap after set-up")

	var reg *obs.Registry
	if cfg.trace {
		reg = obs.NewRegistry()
		db.SetMetrics(reg)
		var sample []*imgio.Image
		for i := 0; i < layerSample; i++ {
			sample = append(sample, genImage(cfg.seed, streamWrite, i))
		}
		if err := layerPass(rep, opts, sample); err != nil {
			return err
		}
	}

	var perWindow []float64
	var onWindow func()
	if cfg.trace {
		last := 0.0
		onWindow = func() {
			c := counter(reg.Snapshot(), "walrus_wal_fsync_total")
			perWindow = append(perWindow, (c-last)/fsyncWindow)
			last = c
		}
	}
	nAdds := cfg.ops
	if nAdds == 0 {
		nAdds = int(addsPerSecond * cfg.seconds)
	}
	adds := nAdds
	if err := addPhase(cfg, rep, db, reg, adds, onWindow); err != nil {
		return err
	}
	if cfg.trace {
		storageLayers(rep, reg.Snapshot(), adds)
		rep.set("wal.fsyncs_per_image_spread", spread(perWindow),
			fmt.Sprintf("IQR/median over %d windows of %d adds; median %.3f", len(perWindow), fsyncWindow, median(perWindow)))
	}
	if err := db.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	want := nPre + adds
	rep.set("disk_bytes_per_image", ratio(float64(size), float64(want)), fmt.Sprintf("%d bytes after Close", size))

	if db, err = walrus.Open(dir); err != nil {
		return err
	}
	rep.check(db.Len() == want, "ingest-disk: Len %d after reopen, want %d preloaded + %d added", db.Len(), nPre, adds)
	rep.set("workload.images", float64(db.Len()), "after reopen")
	rep.set("workload.regions", float64(db.NumRegions()), "after reopen")
	if cfg.trace {
		reg = obs.NewRegistry()
		db.SetMetrics(reg)
	}
	err = readBack(cfg, rep, db, reg, adds)
	return errors.Join(err, db.Close())
}

// readBack queries a sample of the added images by image, spread evenly
// over them; each must rank itself first. The queries are not part of the
// end-to-end metrics; their wall-clock times are printed.
func readBack(cfg config, rep *report, db *walrus.DB, reg *obs.Registry, adds int) error {
	p := walrus.DefaultQueryParams()
	var qt opTimes
	var f funnel
	n := min(readBackSample, adds)
	for k := 0; k < n; k++ {
		j := k * adds / n
		ms, cpu, matches, err := timedQuery(rep.spans, db, genImage(cfg.seed, streamWrite, j), p, &f)
		rep.ops(1, btoi(err != nil))
		if err != nil {
			continue
		}
		qt.add(ms, cpu)
		rep.rank(matches)
		rep.check(ranksFirst(matches, imageID(streamWrite, j)), "ingest-disk: added image %d does not rank itself first after reopen", j)
	}
	rep.info("read-back queries after reopen: %d, wall clock p50 %.3f ms, CPU p50 %.3f ms", len(qt.cpu), qt.wall.quantile(0.5), qt.cpu.quantile(0.5))
	rep.set("workload.query_pool", float64(n), "distinct added images queried back")
	rep.set("workload.repeat_share", 0, "no read-back query repeats")
	rep.info("rankings digest %016x over %d queries", rep.rankings.Sum64(), len(qt.cpu))
	if cfg.trace {
		f.report(rep, "read-back")
		pct, err := traceOverhead(4, 25, func(traced bool) (float64, error) {
			tr := rep.spans
			if traced {
				db.SetMetrics(reg)
			} else {
				db.SetMetrics(nil)
				tr = nil
			}
			var discard funnel
			ms, _, _, err := timedQuery(tr, db, genImage(cfg.seed, streamWrite, 0), p, &discard)
			return ms, err
		})
		if err != nil {
			return err
		}
		rep.set("bench.trace_overhead_pct", pct, "traced vs untraced read-back query p50, 4 alternating blocks of 25")
	}
	return nil
}

// ranksFirst reports whether id is among the matches tied for the top
// similarity.
func ranksFirst(matches []walrus.Match, id string) bool {
	for _, m := range matches {
		if m.Similarity != matches[0].Similarity {
			return false
		}
		if m.ID == id {
			return true
		}
	}
	return false
}

// ranksFirstWithin is ranksFirst for a reply cut at limit matches. Several
// stored images can tie with a searched image at similarity 1, and the
// engine orders ties by id, so when every returned match ties at the top
// the searched id may only be missing if it sorts after the last one.
func ranksFirstWithin(matches []walrus.Match, id string, limit int) bool {
	if ranksFirst(matches, id) {
		return true
	}
	if len(matches) < limit {
		return false
	}
	last := matches[len(matches)-1]
	return last.Similarity == matches[0].Similarity && id > last.ID
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// addPhase adds n fresh images closed-loop, one client, one at a time,
// and reports the end-to-end metrics from them. A non-nil onWindow runs,
// untimed, after every fsyncWindow adds. reg is the registry of a traced
// run.
func addPhase(cfg config, rep *report, db *walrus.DB, reg *obs.Registry, n int, onWindow func()) error {
	var wt opTimes
	for i := 0; i < n; i++ {
		im := genImage(cfg.seed, streamWrite, i)
		trace := rep.spans.newID()
		if cfg.trace {
			s := time.Now()
			snap, err := db.Snapshot()
			if err != nil {
				return err
			}
			snap.Release()
			rep.spans.record("walrus.snapshot", trace, 0, s, time.Now())
		}
		w := startWatch()
		err := db.Add(imageID(streamWrite, i), im)
		end, ms, cpu := w.stop()
		rep.spans.record("walrus.add", trace, 0, w.wall, end)
		rep.ops(1, btoi(err != nil))
		if err != nil {
			return fmt.Errorf("adding image %d: %w", i, err)
		}
		wt.add(ms, cpu)
		if onWindow != nil && len(wt.cpu)%fsyncWindow == 0 {
			onWindow()
		}
	}
	rep.opMetrics(wt, "adds, closed loop, one client")
	if cfg.trace {
		snap := reg.Snapshot()
		rep.set("walrus.add_ms", rep.spans.meanMS("walrus.add"), fmt.Sprintf("mean over %d adds", n))
		rep.set("walrus.index_publish_ms", indexPublishMS(snap, n), "add minus extraction, from the ingest and publish histograms")
		rep.set("walrus.publishes_per_write", ratio(counter(snap, "publishes_total"), float64(n)), "")
		rep.set("walrus.snapshot_acquire_us", 1e3*rep.spans.meanMS("walrus.snapshot"), "")
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/region"
)

// setupRounds is how many times each workload builds its starting
// database; setup_s is the median.
const setupRounds = 3

// oracleSample is how many query images are ranked by the brute-force
// oracle as well as by the engine.
const oracleSample = 8

// runQuery10k builds an in-memory database of ~10k images with BuildFrom
// and queries it closed-loop, one client, every query image distinct and
// drawn from a stream the database was not built from.
func runQuery10k(cfg config, rep *report) error {
	nBase := cfg.scaled(10008, 48)
	opts := walrus.DefaultOptions()
	items, err := genItems(cfg.seed, streamBase, 0, nBase, false)
	if err != nil {
		return err
	}
	areas := make(map[string]int, len(items))
	for _, it := range items {
		areas[it.ID] = it.Image.W * it.Image.H
	}
	var db *walrus.DB
	var setups opTimes
	for r := 0; r < setupRounds; r++ {
		db = nil
		liveHeapMB() // collect the previous round's database before timing
		w := startWatch()
		if db, err = walrus.BuildFrom(opts, items, 0); err != nil {
			return err
		}
		_, wallMS, cpuMS := w.stop()
		setups.add(wallMS, cpuMS)
	}
	items = nil
	rep.setup(setups, fmt.Sprintf("CPU time, median of %d BuildFrom of %d images", setupRounds, nBase))
	rep.set("heap_mb", liveHeapMB(), "live heap after set-up")
	rep.set("workload.images", float64(db.Len()), "")
	rep.set("workload.regions", float64(db.NumRegions()), "")

	var reg *obs.Registry
	if cfg.trace {
		reg = obs.NewRegistry()
		db.SetMetrics(reg)
	}
	p := walrus.DefaultQueryParams()
	var qt opTimes
	var f funnel
	sampled := make(map[int][]walrus.Match, oracleSample)
	busy := 0.0
	for i := 0; cfg.more(i, busy, 1); i++ {
		q := genImage(cfg.seed, streamQuery, i)
		ms, cpu, matches, err := timedQuery(rep.spans, db, q, p, &f)
		rep.ops(1, btoi(err != nil))
		busy += ms
		if err != nil {
			continue
		}
		qt.add(ms, cpu)
		rep.rank(matches)
		if i < oracleSample {
			sampled[i] = matches
		}
	}
	rep.opMetrics(qt, "queries, closed loop, one client")
	rep.set("workload.query_pool", float64(len(qt.cpu)), "distinct query images")
	rep.set("workload.repeat_share", 0, "no query image repeats")
	rep.info("rankings digest %016x over %d queries", rep.rankings.Sum64(), len(qt.cpu))

	if err := checkOracle(rep, db, areas, sampled, cfg.seed, p); err != nil {
		return err
	}

	if cfg.trace {
		f.report(rep, "query phase")
		var sample []*imgio.Image
		for i := 0; i < layerSample; i++ {
			sample = append(sample, genImage(cfg.seed, streamQuery, i))
		}
		if err := layerPass(rep, opts, sample); err != nil {
			return err
		}
		pct, err := traceOverhead(4, 25, func(traced bool) (float64, error) {
			tr := rep.spans
			if traced {
				db.SetMetrics(reg)
			} else {
				db.SetMetrics(nil)
				tr = nil
			}
			var discard funnel
			ms, _, _, err := timedQuery(tr, db, genImage(cfg.seed, streamQuery, 0), p, &discard)
			return ms, err
		})
		if err != nil {
			return err
		}
		rep.set("bench.trace_overhead_pct", pct, "traced vs untraced query p50, 4 alternating blocks of 25")
		rep.set("walrus.snapshot_acquire_us", 1e3*rep.spans.meanMS("walrus.snapshot"), "one per query")
	}
	return nil
}

// timedQuery runs one query by image and returns its wall-clock and CPU
// milliseconds; in a traced run it also times a snapshot acquisition and
// collects the candidate funnel, each call in its own span.
func timedQuery(tr *tracer, db *walrus.DB, q *imgio.Image, p walrus.QueryParams, f *funnel) (float64, float64, []walrus.Match, error) {
	ctx := context.Background()
	var qt *walrus.QueryTrace
	trace := tr.newID()
	if tr != nil {
		s := time.Now()
		snap, err := db.Snapshot()
		if err != nil {
			return 0, 0, nil, err
		}
		snap.Release()
		tr.record("walrus.snapshot", trace, 0, s, time.Now())
		ctx, qt = walrus.WithQueryTrace(ctx)
	}
	w := startWatch()
	matches, st, err := db.QueryContext(ctx, q, p)
	end, ms, cpu := w.stop()
	tr.record("walrus.query", trace, 0, w.wall, end)
	if err != nil {
		return ms, cpu, nil, err
	}
	f.add(st, qt)
	return ms, cpu, matches, nil
}

// checkOracle ranks the sampled queries again by brute force, from
// match.PairsWithin and match.Score over RegionsOf for every stored
// image, and requires the engine's rankings to equal it.
func checkOracle(rep *report, db *walrus.DB, areas map[string]int, sampled map[int][]walrus.Match, seed int64, p walrus.QueryParams) error {
	ext, err := region.NewExtractor(db.Options().Region)
	if err != nil {
		return err
	}
	ids := db.IDs()
	stored := make([][]region.Region, len(ids))
	for i, id := range ids {
		stored[i], _ = db.RegionsOf(id)
	}
	scoreOpts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	for qi := 0; qi < oracleSample; qi++ {
		got, ok := sampled[qi]
		if !ok {
			continue // the query failed and already counts as failed
		}
		q := genImage(seed, streamQuery, qi)
		qRegions, err := ext.Extract(q)
		if err != nil {
			return err
		}
		var want []walrus.Match
		for i, id := range ids {
			pairs := match.PairsWithin(qRegions, stored[i], p.Epsilon)
			if len(pairs) == 0 {
				continue
			}
			trace := rep.spans.newID()
			s := time.Now()
			res, err := match.Score(qRegions, stored[i], pairs, q.W*q.H, areas[id], scoreOpts)
			rep.spans.record("match.score", trace, 0, s, time.Now())
			if err != nil {
				return err
			}
			if res.Similarity >= p.Tau {
				want = append(want, walrus.Match{ID: id, Similarity: res.Similarity})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Similarity != want[j].Similarity {
				return want[i].Similarity > want[j].Similarity
			}
			return want[i].ID < want[j].ID
		})
		rep.check(sameRanking(got, want), "query %d: engine ranking (%d matches) differs from the brute-force oracle (%d)", qi, len(got), len(want))
	}
	if rep.cfg.trace {
		rep.set("match.score_us", 1e3*rep.spans.meanMS("match.score"), "oracle's match.Score calls")
	}
	return nil
}

func sameRanking(got, want []walrus.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Similarity-want[i].Similarity) > 1e-9 {
			return false
		}
	}
	return true
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

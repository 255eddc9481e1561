package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"walrus"
	"walrus/internal/dataset"
)

// FilterBenchResult measures the version-keyed result cache on a
// disk-backed index: what a warmed cache saves on a repeated query over
// the exact pipeline. Latencies are per-query percentiles over queries x
// rounds serial samples.
type FilterBenchResult struct {
	Images          int `json:"images"`
	QueriesPerRound int `json:"queries_per_round"`
	Rounds          int `json:"rounds"`

	// Exact pipeline, no cache.
	ColdP50Ns int64 `json:"cold_p50_ns"`
	ColdP99Ns int64 `json:"cold_p99_ns"`
	// Result cache on and warmed: every sample is a hit.
	WarmCacheP50Ns int64 `json:"warm_cache_p50_ns"`
	WarmCacheP99Ns int64 `json:"warm_cache_p99_ns"`

	// WarmCacheSpeedup is cold p50 over warm-cache p50.
	WarmCacheSpeedup float64 `json:"warm_cache_speedup"`
	// Identical reports that the cached ranking matched the exact
	// pipeline's on every sampled query.
	Identical bool `json:"identical"`
}

// percentileNS returns the q-quantile (0..1) of a sample set, in
// nanoseconds. The samples are sorted in place.
func percentileNS(samples []time.Duration, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)-1))
	return samples[idx].Nanoseconds()
}

// FilterBench builds a disk-backed index over up to images dataset
// items, then samples per-query latency in two configurations — exact
// pipeline and warmed result cache — interleaving configurations within
// each round so background noise hits both alike.
func FilterBench(ds *dataset.Dataset, opts walrus.Options, images, queries, rounds int) (FilterBenchResult, error) {
	if len(ds.Items) == 0 {
		return FilterBenchResult{}, fmt.Errorf("experiments: empty dataset")
	}
	if images > len(ds.Items) {
		images = len(ds.Items)
	}
	items := make([]walrus.BatchItem, images)
	for i := 0; i < images; i++ {
		items[i] = walrus.BatchItem{ID: ds.Items[i].ID, Image: ds.Items[i].Image}
	}
	base, err := os.MkdirTemp("", "walrus-filter")
	if err != nil {
		return FilterBenchResult{}, err
	}
	defer os.RemoveAll(base)
	db, err := walrus.Create(filepath.Join(base, "idx"), opts)
	if err != nil {
		return FilterBenchResult{}, err
	}
	defer db.Close()
	if err := db.AddBatch(items, 0); err != nil {
		return FilterBenchResult{}, err
	}

	exact := walrus.DefaultQueryParams()
	exact.Parallelism = 1 // serial: measure the hot path, not the scheduler
	q := ds.Items[0].Image

	res := FilterBenchResult{Images: images, QueriesPerRound: queries, Rounds: rounds, Identical: true}

	// Correctness first: a cache hit must reproduce the exact pipeline's
	// answer on every query image we sample from.
	db.SetCacheSize(images)
	for i := 0; i < images && res.Identical; i++ {
		me, _, err := db.Query(ds.Items[i].Image, exact)
		if err != nil {
			return res, err
		}
		mc, st, err := db.Query(ds.Items[i].Image, exact)
		if err != nil {
			return res, err
		}
		if st.Cache != "hit" || len(me) != len(mc) {
			res.Identical = false
			break
		}
		for j := range me {
			if me[j].ID != mc[j].ID || me[j].Similarity != mc[j].Similarity {
				res.Identical = false
				break
			}
		}
	}
	db.SetCacheSize(0)

	sample := func(p walrus.QueryParams, out *[]time.Duration) error {
		for i := 0; i < queries; i++ {
			start := time.Now()
			if _, _, err := db.Query(q, p); err != nil {
				return err
			}
			*out = append(*out, time.Since(start))
		}
		return nil
	}
	var cold, warm []time.Duration
	if err := sample(exact, &cold); err != nil { // warm-up, discarded
		return res, err
	}
	cold = cold[:0]
	for r := 0; r < rounds; r++ {
		db.SetCacheSize(0)
		if err := sample(exact, &cold); err != nil {
			return res, err
		}
		db.SetCacheSize(16)
		if _, _, err := db.Query(q, exact); err != nil { // prime the cache
			return res, err
		}
		if err := sample(exact, &warm); err != nil {
			return res, err
		}
	}
	db.SetCacheSize(0)

	res.ColdP50Ns = percentileNS(cold, 0.50)
	res.ColdP99Ns = percentileNS(cold, 0.99)
	res.WarmCacheP50Ns = percentileNS(warm, 0.50)
	res.WarmCacheP99Ns = percentileNS(warm, 0.99)
	if res.WarmCacheP50Ns > 0 {
		res.WarmCacheSpeedup = float64(res.ColdP50Ns) / float64(res.WarmCacheP50Ns)
	}
	return res, nil
}

// PrintFilterBench renders the result-cache measurement.
func PrintFilterBench(w io.Writer, r FilterBenchResult) {
	fmt.Fprintf(w, "result cache (%d images, %d serial queries x %d rounds)\n",
		r.Images, r.QueriesPerRound, r.Rounds)
	fmt.Fprintf(w, "%-28s p50 %10d ns   p99 %10d ns\n", "exact pipeline", r.ColdP50Ns, r.ColdP99Ns)
	fmt.Fprintf(w, "%-28s p50 %10d ns   p99 %10d ns\n", "warm result cache", r.WarmCacheP50Ns, r.WarmCacheP99Ns)
	fmt.Fprintf(w, "warm-cache speedup: %.1fx; cached ranking identical: %v\n", r.WarmCacheSpeedup, r.Identical)
}

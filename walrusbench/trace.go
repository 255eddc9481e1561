package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"walrus"
	"walrus/internal/colorspace"
	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/region"
	"walrus/internal/wavelet"
)

// spanRec is one span the benchmark recorded around a call into a layer's
// public function. Spans of one operation share a trace id; times are
// nanoseconds since the tracer started. The layer pass's per-layer spans
// hang under a bench.layers root per image; every other operation is
// one span, or a snapshot span beside its query or add.
type spanRec struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (tracing
// off) records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span or trace id (0 when tracing is off).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record files a finished span of a trace under parent (0 for none).
func (t *tracer) record(name string, trace, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(name, t.newID(), trace, parent, start, end)
}

// recordRoot files the finished root span of a trace. Its id is the trace
// id, so the trace's other spans name it as their parent.
func (t *tracer) recordRoot(name string, trace uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(name, trace, trace, 0, start, end)
}

func (t *tracer) add(name string, id, trace, parent uint64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Trace: trace, ID: id, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

// meanMS is the mean duration of the spans with the given name.
func (t *tracer) meanMS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.EndNS - s.StartNS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// dump writes every span as one JSON document.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerSample is how many images the traced layer pass decomposes.
const layerSample = 64

// layerPass runs the extraction layers one public call at a time on
// sample images, each call inside a span: PPM decode, color conversion,
// the sliding-window DP of every channel and the full region extraction.
// Every call runs serially (one worker), so the layers' times add up:
// clustering and region build have no public entry point of their own,
// and region.cluster_ms is what extraction spends beyond conversion and
// the DP.
func layerPass(rep *report, opts walrus.Options, ims []*imgio.Image) error {
	t := rep.spans
	ro := opts.Region
	ro.Workers = 1
	ext, err := region.NewExtractor(ro)
	if err != nil {
		return err
	}
	regions := 0
	for _, im := range ims {
		b, err := encodePPM(im)
		if err != nil {
			return err
		}
		trace := t.newID()
		root := time.Now()

		s := time.Now()
		dec, err := imgio.DecodePPM(bytes.NewReader(b))
		if err != nil {
			return err
		}
		t.record("imgio.decode", trace, trace, s, time.Now())

		s = time.Now()
		conv, err := colorspace.FromRGB(dec, ro.Space)
		if err != nil {
			return err
		}
		t.record("colorspace.convert", trace, trace, s, time.Now())

		maxWin := ro.MaxWindow
		for maxWin > dec.W || maxWin > dec.H {
			maxWin /= 2
		}
		params := wavelet.SlidingParams{MaxWindow: maxWin, Signature: ro.Signature, Step: ro.Step, Workers: ro.Workers}
		s = time.Now()
		for c := 0; c < conv.C; c++ {
			if _, err := wavelet.ComputeSlidingWindows(conv.Plane(c), conv.W, conv.H, params); err != nil {
				return err
			}
		}
		t.record("wavelet.sliding", trace, trace, s, time.Now())

		s = time.Now()
		rs, err := ext.Extract(dec)
		if err != nil {
			return err
		}
		t.record("region.extract", trace, trace, s, time.Now())
		regions += len(rs)
		t.recordRoot("bench.layers", trace, root, time.Now())
	}
	convert, sliding, extract := t.meanMS("colorspace.convert"), t.meanMS("wavelet.sliding"), t.meanMS("region.extract")
	note := fmt.Sprintf("mean over %d images, serial", len(ims))
	rep.set("imgio.decode_ms", t.meanMS("imgio.decode"), note)
	rep.set("colorspace.convert_ms", convert, note)
	rep.set("wavelet.sliding_ms", sliding, note+", all channels")
	rep.set("region.extract_ms", extract, note)
	rep.set("region.cluster_ms", extract-convert-sliding, "extract - convert - sliding")
	rep.set("region.regions_per_image", ratio(float64(regions), float64(len(ims))), note)
	return nil
}

// funnel accumulates the per-query counts the engine exposes: QueryStats
// and, in traced runs, the WithQueryTrace candidate funnel.
type funnel struct {
	queries                int
	hits, visits, retained float64
	candidates, pairs      float64
	skews                  []float64
	extract, probe, score  latencies
}

func (f *funnel) add(st walrus.QueryStats, qt *walrus.QueryTrace) {
	f.queries++
	f.candidates += float64(st.CandidateImages)
	f.pairs += float64(st.RegionsRetrieved)
	f.extract = append(f.extract, float64(st.ExtractTime.Nanoseconds())/1e6)
	f.probe = append(f.probe, float64(st.ProbeTime.Nanoseconds())/1e6)
	f.score = append(f.score, float64(st.ScoreTime.Nanoseconds())/1e6)
	if qt == nil {
		return
	}
	for _, s := range qt.Stages {
		if s.Stage == "probe" {
			f.hits += float64(s.IndexHits)
			f.visits += float64(s.NodesVisited)
			f.retained += float64(s.Out)
		}
	}
	f.skews = append(f.skews, probeSkew(qt.Shards))
}

// probeSkew is the slowest shard's probe time over the mean across shards.
func probeSkew(shards []walrus.ExplainShard) float64 {
	if len(shards) == 0 {
		return 0
	}
	var sum, top int64
	for _, s := range shards {
		sum += s.ProbeNS
		top = max(top, s.ProbeNS)
	}
	return ratio(float64(top), float64(sum)/float64(len(shards)))
}

// report prints the funnel's per-query layer metrics.
func (f *funnel) report(rep *report, phase string) {
	n := float64(f.queries)
	note := fmt.Sprintf("%s, mean over %d queries", phase, f.queries)
	rep.set("walrus.query_extract_ms", f.extract.mean(), note)
	rep.set("walrus.query_probe_ms", f.probe.mean(), note)
	rep.set("walrus.query_score_ms", f.score.mean(), note)
	rep.set("rstar.index_hits_per_query", ratio(f.hits, n), note)
	rep.set("rstar.nodes_visited_per_query", ratio(f.visits, n), note)
	rep.set("walrus.probe_yield", ratio(f.retained, f.hits), "regions retrieved / index hits")
	rep.set("match.candidates_per_query", ratio(f.candidates, n), note)
	rep.set("match.pairs_per_query", ratio(f.pairs, n), note)
	rep.set("shard.probe_skew", median(f.skews), "median over queries")
}

// counter sums every counter whose name ends with suffix, so a sharded
// fleet's per-shard series (walrus_shard0_..., walrus_shard1_...) add up.
func counter(s obs.Snapshot, suffix string) float64 {
	t := 0.0
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) {
			t += float64(v)
		}
	}
	return t
}

// histMeanMS is the mean observation, in milliseconds, of the histograms
// whose names end with suffix (a fleet's per-shard series pool).
func histMeanMS(s obs.Snapshot, suffix string) float64 {
	var sum float64
	var n uint64
	for name, h := range s.Histograms {
		if strings.HasSuffix(name, suffix) {
			sum += h.Sum
			n += h.Count
		}
	}
	return ratio(sum*1e3, float64(n))
}

// indexPublishMS is what an add costs after extraction, per written image,
// as the engine times it: catalog and index insert plus WAL commit
// (the ingest histogram), then the catalog publish.
func indexPublishMS(s obs.Snapshot, writes int) float64 {
	publishes := ratio(counter(s, "publishes_total"), float64(writes))
	return histMeanMS(s, "ingest_seconds") + publishes*histMeanMS(s, "publish_seconds")
}

// storageLayers prints the WAL, buffer-pool and pager metrics of a
// disk-backed write phase from the registry's counters.
func storageLayers(rep *report, s obs.Snapshot, images int) {
	n := float64(images)
	rep.set("wal.fsyncs_per_image", ratio(counter(s, "walrus_wal_fsync_total"), n), fmt.Sprintf("%d images", images))
	rep.set("wal.bytes_per_image", ratio(counter(s, "walrus_wal_bytes_written_total"), n), "")
	rep.set("wal.fsync_ms", histMeanMS(s, "walrus_wal_fsync_seconds"), "mean fsync")
	hits, misses := counter(s, "walrus_bufpool_hits_total"), counter(s, "walrus_bufpool_misses_total")
	rep.set("store.bufpool_hit_ratio", ratio(hits, hits+misses), fmt.Sprintf("%.0f lookups", hits+misses))
	rep.set("store.pager_writes_per_image", ratio(counter(s, "walrus_pager_writes_total"), n), "")
}

// traceOverhead runs op in alternating untraced and traced blocks and
// returns by how much the traced median latency exceeds the untraced one,
// in percent. op returns one operation's latency in milliseconds.
func traceOverhead(blocks, perBlock int, op func(traced bool) (float64, error)) (float64, error) {
	var plain, traced latencies
	for b := 0; b < 2*blocks; b++ {
		on := b%2 == 1
		for i := 0; i < perBlock; i++ {
			ms, err := op(on)
			if err != nil {
				return 0, err
			}
			if on {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
		}
	}
	return 100 * (traced.quantile(0.5)/plain.quantile(0.5) - 1), nil
}

// Command walrusbench is the WALRUS benchmark: one workload per run,
// end-to-end metrics with tracing off, per-layer metrics with tracing on.
//
//	bash walrusbench/run.sh --workload query-10k --seed 1 --seconds 10 --trace 0
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. See README.md
// for the workloads and the layer → end-to-end table.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"walrus"
)

// outDir, under the directory the benchmark runs from, holds each run's
// databases (removed when the run ends) and traced runs' span dumps.
var outDir = filepath.Join(".bench_build", "walrusbench")

// workloads maps each --workload name to its driver.
var workloads = map[string]func(cfg config, rep *report) error{
	"query-10k":   runQuery10k,
	"ingest-disk": runIngestDisk,
	"serve-mixed": runServeMixed,
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir holds the run's database directories and span dump; it lives
	// inside the checkout the benchmark runs from.
	workDir string
	// scale shrinks every workload's sizes (1 = the published sizes), and
	// ops > 0 replaces each closed loop's time budget with a fixed
	// operation count; the benchmark's own tests use both.
	scale float64
	ops   int
}

// scaled returns n scaled by the run's scale factor, at least lo.
func (c config) scaled(n, lo int) int {
	return max(lo, int(float64(n)*c.scale))
}

// more reports whether a closed loop that has run i operations, busy for
// busyMS milliseconds, goes on: until share of the run's seconds is spent
// inside the operations, or for exactly ops operations.
func (c config) more(i int, busyMS, share float64) bool {
	if c.ops > 0 {
		return i < c.ops
	}
	return busyMS < share*c.seconds*1e3
}

func main() {
	workload := flag.String("workload", "", "workload to run: query-10k, ingest-disk or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs with tracing on and prints the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "walrusbench: usage: --workload {query-10k|ingest-disk|serve-mixed} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	// The 10k-image build holds ~2.6 GB of float64 pixels at once; a soft
	// limit keeps the collector from letting the heap double past that.
	debug.SetMemoryLimit(3 << 30)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	workDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fail(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: workDir, scale: 1}
	rep := newReport(*workload, cfg)
	runErr := run(cfg, rep)
	if err := os.RemoveAll(workDir); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fail(runErr)
	}
	line, err := rep.finish()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "walrusbench: %v\n", err)
	os.Exit(1)
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every workload
// reports all of them with tracing off. An operation is the workload's
// own: a query on query-10k, an Add on ingest-disk, one request of the
// search/ingest mix on serve-mixed. Times are CPU time, not wall-clock
// time (see cpuNow); the wall-clock figures are printed beside them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p99_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"heap_mb", "MB"},
	{"ok_ops_share", "share"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 there (no WAL in memory, no server outside serve).
var perLayer = []metricDef{
	{"imgio.decode_ms", "ms"},
	{"colorspace.convert_ms", "ms"},
	{"wavelet.sliding_ms", "ms"},
	{"region.extract_ms", "ms"},
	{"region.cluster_ms", "ms"},
	{"region.regions_per_image", "count"},
	{"walrus.query_extract_ms", "ms"},
	{"walrus.query_probe_ms", "ms"},
	{"walrus.query_score_ms", "ms"},
	{"rstar.index_hits_per_query", "count"},
	{"rstar.nodes_visited_per_query", "count"},
	{"walrus.probe_yield", "ratio"},
	{"match.candidates_per_query", "count"},
	{"match.pairs_per_query", "count"},
	{"match.score_us", "us"},
	{"walrus.add_ms", "ms"},
	{"walrus.index_publish_ms", "ms"},
	{"walrus.publishes_per_write", "count"},
	{"walrus.snapshot_acquire_us", "us"},
	{"wal.fsyncs_per_image", "count"},
	{"wal.fsyncs_per_image_spread", "ratio"},
	{"wal.bytes_per_image", "B"},
	{"wal.fsync_ms", "ms"},
	{"store.bufpool_hit_ratio", "ratio"},
	{"store.pager_writes_per_image", "count"},
	{"disk_bytes_per_image", "B"},
	{"cache.hit_ratio", "ratio"},
	{"shard.probe_skew", "ratio"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.writes_per_flush", "count"},
	{"serve.writes_per_flush_spread", "ratio"},
	{"serve.shed_share", "ratio"},
	{"max_rate_per_s", "1/s"},
	{"bench.generator_lag_ms", "ms"},
	{"bench.backlog_end", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.failed_ops_share", "ratio"},
	{"workload.images", "count"},
	{"workload.regions", "count"},
	{"workload.query_pool", "count"},
	{"workload.repeat_share", "ratio"},
}

// report collects one run's metrics, checks and counts.
type report struct {
	workload string
	cfg      config
	values   map[string]float64
	checks   []string // failed correctness checks
	attempts int
	fails    int
	spans    *tracer
	// rankings digests every ranking the query phase returned, in order.
	rankings hash.Hash64
}

func newReport(workload string, cfg config) *report {
	r := &report{workload: workload, cfg: cfg, values: make(map[string]float64), rankings: fnv.New64a()}
	if cfg.trace {
		r.spans = newTracer()
	}
	return r
}

// set records a metric and prints it as a human-readable line; note is
// free text such as the sample count.
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-32s %14.4f %-6s%s\n", name, v, unitOf(name), note)
}

// info prints a line that is not a metric, such as a rate step's summary.
func (r *report) info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// rank adds one query's ranking to the run's rankings digest.
func (r *report) rank(matches []walrus.Match) {
	var b [8]byte
	for _, m := range matches {
		r.rankings.Write([]byte(m.ID))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Similarity))
		r.rankings.Write(b[:])
	}
	r.rankings.Write([]byte{0})
}

// ops counts attempted and failed operations.
func (r *report) ops(attempted, failed int) {
	r.attempts += attempted
	r.fails += failed
}

// check records a correctness check; a failed check counts as a failed
// operation and fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempts++
	if !ok {
		r.fails++
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
		fmt.Fprintf(os.Stderr, "walrusbench: check failed: "+format+"\n", args...)
	}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish derives the shared metrics, writes the span dump of a traced run
// and returns the result line.
func (r *report) finish() ([]byte, error) {
	failedShare := 0.0
	if r.attempts > 0 {
		failedShare = float64(r.fails) / float64(r.attempts)
	}
	r.set("ok_ops_share", 1-failedShare, fmt.Sprintf("%d of %d operations and checks failed", r.fails, r.attempts))
	defs := endToEnd
	if r.cfg.trace {
		r.set("bench.failed_ops_share", failedShare, "")
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.cfg.seed))
		if err := r.spans.dump(path); err != nil {
			return nil, err
		}
		r.info("%d spans written to %s", len(r.spans.spans), path)
		defs = perLayer
	}
	out := resultLine{Correct: len(r.checks) == 0 && r.fails == 0, Attempted: r.attempts, Failed: r.fails, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			if !r.cfg.trace {
				return nil, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
			}
			v = 0 // a layer this workload does not exercise
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured no value for %s", r.workload, d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", r.workload)
	}
	return json.Marshal(out)
}

// setup reports setup_s, the median CPU time of the set-up rounds in
// seconds, and prints their median wall-clock time beside it.
func (r *report) setup(rounds opTimes, what string) {
	r.set("setup_s", median(rounds.cpu)/1e3, what)
	r.info("set-up wall clock: median %.3f s", median(rounds.wall)/1e3)
}

// opMetrics reports the workload's operations: the median and p99 of
// their CPU time and how many complete per CPU-second spent in them. The
// same figures by the wall clock are printed as a comment line.
func (r *report) opMetrics(o opTimes, what string) {
	note := fmt.Sprintf("%s, %s", what, o.cpu.tailNote(0.99))
	r.set("op_cpu_p50_ms", o.cpu.quantile(0.5), note)
	r.set("op_cpu_p99_ms", o.cpu.quantile(0.99), note)
	r.set("ops_per_cpu_s", ratio(float64(len(o.cpu)), o.cpu.sum()/1e3), what)
	r.info("wall clock: p50 %.3f ms, p99 %.3f ms, %.2f ops per second spent in them",
		o.wall.quantile(0.5), o.wall.quantile(0.99), ratio(float64(len(o.wall)), o.wall.sum()/1e3))
}

// since returns the elapsed time from t in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

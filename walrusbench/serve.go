package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"walrus"
	"walrus/internal/imgio"
	"walrus/internal/obs"
	"walrus/internal/serve"
)

// serve-mixed runs in two phases. A closed-loop client first sends the
// request mix one request at a time over one connection for
// serveClosedShare of the run; the CPU its requests cost gives the
// end-to-end metrics. The open-loop ladder then offers the mix at fixed
// rates in requests per second, each step an equal share of the rest of
// the run, and finds the knee (300-400 req/s on a 2-CPU machine).
var serveRates = []float64{100, 200, 300, 400, 500}

const (
	serveClosedShare = 0.8
	serveWriteFrac   = 0.10 // share of requests that ingest a fresh image
	servePool        = 512  // search images, drawn with a Zipf skew
	// The skew is mild on purpose: the most searched image gets ~1.3% of
	// the searches and the top 32 about a quarter. Search cost differs
	// widely between images, so a steeper skew lets the few images a seed
	// happens to make popular decide the cost.
	serveZipfS   = 1.1
	serveZipfV   = 32
	serveCache   = 64    // result-cache entries
	serveLimitMS = 100.0 // p90 latency limit for max_rate_per_s
	serveLimitQ  = 0.9   // a ladder step holds >= 100 requests, 10 beyond its p90
	serveShards  = 2
	serveTopK    = 10 // matches a search asks for
)

// request is one scheduled HTTP request of the open-loop generator.
type request struct {
	write bool
	pool  int    // search: index into the search pool
	id    string // ingest: the fresh image's id; search: the stored id searched for
	fresh int    // ingest: the fresh image's index in its stream
	body  []byte
}

// outcome is what one request produced; ms is timed from the request's
// scheduled send time, so queueing behind a stall counts. cpuMS is the
// process's CPU time over the HTTP exchange, client and server side; it
// is one request's cost only in the closed loop, where nothing else runs.
type outcome struct {
	ms, lagMS float64
	cpuMS     float64
	ok        bool // 2xx and, for searches, a correct top match
	cacheHit  bool
	qt        *walrus.QueryTrace
}

// mixer draws the request mix from its own random source: exactly one
// request in every 1/serveWriteFrac ingests the next fresh image of its
// stream, at a random place among them; the others search a pool image
// (a stored image, so the top match is known) drawn with the Zipf skew,
// so some searches repeat.
type mixer struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	stream  int
	poolIDs []string
	pool    [][]byte
	i, slot int
	writes  int
}

func newMixer(seed uint64, stream int, poolIDs []string, pool [][]byte) *mixer {
	rng := rand.New(rand.NewSource(int64(splitmix(seed))))
	return &mixer{rng: rng, zipf: rand.NewZipf(rng, serveZipfS, serveZipfV, uint64(len(pool)-1)),
		stream: stream, poolIDs: poolIDs, pool: pool}
}

// next draws the next request; an ingest's body is left for the caller,
// who renders image fresh of the mixer's stream.
func (m *mixer) next() request {
	group := int(math.Round(1 / serveWriteFrac))
	if m.i%group == 0 {
		m.slot = m.rng.Intn(group)
	}
	write := m.i%group == m.slot
	m.i++
	if write {
		m.writes++
		return request{write: true, fresh: m.writes - 1, id: imageID(m.stream, m.writes-1)}
	}
	k := int(m.zipf.Uint64())
	return request{pool: k, id: m.poolIDs[k], body: m.pool[k]}
}

// runServeMixed serves a disk-backed 2-shard fleet built by
// CreateFromSharded through walrus-serve's handler on a loopback listener,
// with the result cache on, and sends it a mix of ~90% search-by-image
// POSTs and ~10% ingests of fresh images: first closed-loop, one request
// at a time, then open-loop at each rate of the ladder.
func runServeMixed(cfg config, rep *report) error {
	nBase := cfg.scaled(1920, 48)
	opts := walrus.DefaultOptions()
	opts.Shards = serveShards
	opts.CacheSize = serveCache
	items, err := genItems(cfg.seed, streamBase, 0, nBase, true)
	if err != nil {
		return err
	}
	seed := splitmix(uint64(cfg.seed))
	rng := rand.New(rand.NewSource(int64(seed)))
	poolIdx := rng.Perm(nBase)[:min(servePool, nBase)]
	pool := make([][]byte, len(poolIdx))
	poolIDs := make([]string, len(poolIdx))
	poolBytes := 0
	for k, i := range poolIdx {
		if pool[k], err = encodePPM(items[i].Image); err != nil {
			return err
		}
		poolIDs[k] = items[i].ID
		poolBytes += len(pool[k])
	}
	var sample []*imgio.Image
	for _, i := range poolIdx[:min(layerSample, len(poolIdx))] {
		sample = append(sample, items[i].Image)
	}

	var sh *walrus.Sharded
	var dir string
	var setups opTimes
	for r := 0; r < setupRounds; r++ {
		if sh != nil {
			if err := errors.Join(sh.Close(), os.RemoveAll(dir)); err != nil {
				return err
			}
		}
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("fleet-%d", r))
		liveHeapMB()
		w := startWatch()
		if sh, err = walrus.CreateFromSharded(dir, opts, items, 0); err != nil {
			return err
		}
		_, wallMS, cpuMS := w.stop()
		setups.add(wallMS, cpuMS)
	}
	items = nil
	rep.setup(setups, fmt.Sprintf("CPU time, median of %d CreateFromSharded of %d images, %d shards", setupRounds, nBase, serveShards))
	rep.set("heap_mb", liveHeapMB()-float64(poolBytes)/(1<<20), fmt.Sprintf("live heap after set-up less the %.1f MB of search bodies the generator holds", float64(poolBytes)/(1<<20)))
	rep.set("workload.images", float64(sh.Len()), "before the first request")
	rep.set("workload.regions", float64(sh.NumRegions()), "before the first request")
	rep.set("workload.query_pool", float64(len(pool)), fmt.Sprintf("stored images searched, Zipf s=%.1f v=%d; result cache %d entries", serveZipfS, serveZipfV, serveCache))

	// The closed loop draws its requests as it goes, from the mixer of
	// streamWrite; the ladder's are drawn up front from another mixer
	// and fresh-image stream, so they do not depend on how many requests
	// the closed loop had time for.
	closedMix := newMixer(seed^streamWrite, streamWrite, poolIDs, pool)
	ladderMix := newMixer(seed^streamLadder, streamLadder, poolIDs, pool)
	durs := make([]float64, len(serveRates))
	steps := make([][]request, len(serveRates))
	for s, rate := range serveRates {
		durs[s] = (1 - serveClosedShare) * cfg.seconds / float64(len(serveRates))
		for i := 0; i < int(rate*durs[s]); i++ {
			r := ladderMix.next()
			if r.write {
				if r.body, err = encodePPM(genImage(cfg.seed, streamLadder, r.fresh)); err != nil {
					return err
				}
			}
			steps[s] = append(steps[s], r)
		}
	}

	var reg *obs.Registry
	if cfg.trace {
		if err := layerPass(rep, opts, sample); err != nil {
			return err
		}
		probeReg := obs.NewRegistry()
		pct, err := traceOverhead(4, 25, func(traced bool) (float64, error) {
			ctx := context.Background()
			if traced {
				sh.SetMetrics(probeReg)
				ctx, _ = walrus.WithQueryTrace(ctx)
			} else {
				sh.SetMetrics(nil)
			}
			p := walrus.DefaultQueryParams()
			p.NoCache = true
			t := time.Now()
			_, _, err := sh.QueryContext(ctx, sample[0], p)
			return since(t), err
		})
		if err != nil {
			return err
		}
		rep.set("bench.trace_overhead_pct", pct, "traced vs untraced sharded query p50, 4 alternating blocks of 25")
		reg = obs.NewRegistry()
		sh.SetMetrics(reg)
	}

	srv, err := serve.New(serve.Config{Backend: sh, Metrics: reg})
	if err != nil {
		return errors.Join(err, sh.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, sh.Close())
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()

	stopSnaps := sampleSnapshots(rep.spans, sh)
	closedReqs, closedOuts, err := closedLoop(cfg, rep, client, base, closedMix)
	if err != nil {
		stopSnaps()
		return errors.Join(err, srv.Drain(context.Background()), <-served)
	}
	outcomes, backlogs, flushes := runLadder(cfg, rep, client, base, steps, durs, reg)
	stopSnaps()

	drainErr := srv.Drain(context.Background())
	transport.CloseIdleConnections()
	if err := errors.Join(drainErr, <-served); err != nil {
		return err
	}

	// From here on the closed loop is one more step of requests and
	// outcomes, ahead of the ladder's.
	steps = append([][]request{closedReqs}, steps...)
	outcomes = append([][]outcome{closedOuts}, outcomes...)
	var acked []string
	for s, reqs := range steps {
		for i, r := range reqs {
			if r.write && outcomes[s][i].ok {
				acked = append(acked, r.id)
			}
		}
	}
	summarizeServe(rep, steps, outcomes, backlogs, durs)
	if cfg.trace {
		serveLayers(rep, reg.Snapshot(), outcomes, flushes, len(acked))
	}

	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rep.set("disk_bytes_per_image", ratio(float64(size), float64(nBase+len(acked))), fmt.Sprintf("%d bytes after drain", size))
	re, err := walrus.OpenSharded(dir)
	if err != nil {
		return err
	}
	rep.check(re.Len() == nBase+len(acked), "serve-mixed: Len %d after drain and reopen, want %d stored + %d acknowledged", re.Len(), nBase, len(acked))
	for _, id := range acked {
		_, ok := re.RegionsOf(id)
		rep.check(ok, "serve-mixed: acknowledged ingest %s not readable after reopen", id)
	}
	return re.Close()
}

// sampleSnapshots acquires and releases a fleet snapshot every 10ms while
// the ladder runs, each inside a span, in traced runs only. The returned
// function stops the sampler and waits for it.
func sampleSnapshots(t *tracer, sh *walrus.Sharded) func() {
	if t == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s := time.Now()
				snap, err := sh.Snapshot()
				if err != nil {
					continue
				}
				snap.Release()
				t.record("walrus.snapshot", t.newID(), 0, s, time.Now())
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// closedLoop sends the mixer's requests one at a time, each when the
// previous one is answered, until they have taken serveClosedShare of the
// run's seconds (or cfg.ops requests).
func closedLoop(cfg config, rep *report, client *http.Client, base string, m *mixer) ([]request, []outcome, error) {
	var reqs []request
	var outs []outcome
	busy := 0.0
	for i := 0; cfg.more(i, busy, serveClosedShare); i++ {
		r := m.next()
		if r.write {
			var err error
			if r.body, err = encodePPM(genImage(cfg.seed, m.stream, r.fresh)); err != nil {
				return nil, nil, err
			}
		}
		o := doRequest(cfg, rep.spans, client, base, r, time.Now())
		busy += o.ms
		r.body = nil // the ingest bodies are not needed again
		reqs = append(reqs, r)
		outs = append(outs, o)
	}
	return reqs, outs, nil
}

// runLadder offers each step's requests open-loop at the step's rate and
// returns every request's outcome, the backlog left at the end of each
// step (scheduled but not yet answered), and in traced runs the coalescer
// flush and write counters after each step. It waits for a step's backlog
// to drain before starting the next step.
func runLadder(cfg config, rep *report, client *http.Client, base string, steps [][]request, durs []float64, reg *obs.Registry) ([][]outcome, []int64, [][2]float64) {
	outcomes := make([][]outcome, len(steps))
	backlogs := make([]int64, len(steps))
	var flushes [][2]float64
	for s, reqs := range steps {
		rate := serveRates[s]
		outcomes[s] = make([]outcome, len(reqs))
		var inflight atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := range reqs {
			due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			inflight.Add(1)
			wg.Add(1)
			go func(r request, out *outcome) {
				defer wg.Done()
				defer inflight.Add(-1)
				*out = doRequest(cfg, rep.spans, client, base, r, due)
			}(reqs[i], &outcomes[s][i])
		}
		time.Sleep(time.Until(t0.Add(time.Duration(durs[s] * float64(time.Second)))))
		backlogs[s] = inflight.Load()
		wg.Wait()
		if reg != nil {
			snap := reg.Snapshot()
			flushes = append(flushes, [2]float64{counter(snap, "walrus_serve_coalesce_flushes_total"), counter(snap, "walrus_serve_coalesced_writes_total")})
		}
	}
	return outcomes, backlogs, flushes
}

// searchReply is the part of the /v1/search reply the benchmark checks.
type searchReply struct {
	Matches []walrus.Match     `json:"matches"`
	Explain *walrus.QueryTrace `json:"explain"`
}

// doRequest sends one request and checks its answer: an ingest must be
// acknowledged with 201, a search must answer 200 with the searched
// stored image among the top matches.
func doRequest(cfg config, t *tracer, client *http.Client, base string, r request, due time.Time) outcome {
	out := outcome{}
	url := base + "/v1/images?id=" + r.id
	want := http.StatusCreated
	name := "serve.ingest"
	if !r.write {
		url = fmt.Sprintf("%s/v1/search?k=%d", base, serveTopK)
		if cfg.trace {
			url += "&explain=1"
		}
		want = http.StatusOK
		name = "serve.search"
	}
	w := startWatch()
	out.lagMS = float64(w.wall.Sub(due).Nanoseconds()) / 1e6
	var body []byte
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(r.body))
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end, _, cpu := w.stop()
	out.cpuMS = cpu
	out.ms = float64(end.Sub(due).Nanoseconds()) / 1e6
	t.record(name, t.newID(), 0, w.wall, end)
	if err == nil {
		out.ok = resp.StatusCode == want
		if out.ok && !r.write {
			var reply searchReply
			out.ok = json.Unmarshal(body, &reply) == nil && ranksFirstWithin(reply.Matches, r.id, serveTopK)
			out.cacheHit = resp.Header.Get("X-Walrus-Cache") == "hit"
			out.qt = reply.Explain
		}
	}
	return out
}

// summarizeServe reports the end-to-end metrics from the closed loop,
// steps[0], and prints each ladder step, steps[1:], with its backlog.
func summarizeServe(rep *report, steps [][]request, outcomes [][]outcome, backlogs []int64, durs []float64) {
	failed, total, repeats, searches := 0, 0, 0, 0
	seen := make(map[int]bool)
	for s, reqs := range steps {
		for i, r := range reqs {
			if !outcomes[s][i].ok {
				failed++
			}
			if !r.write {
				searches++
				if seen[r.pool] {
					repeats++
				}
				seen[r.pool] = true
			}
		}
		total += len(reqs)
	}
	rep.ops(total, failed)
	rep.set("workload.repeat_share", ratio(float64(repeats), float64(searches)), "searches whose image was searched before")

	var all, q, w opTimes
	hits := 0
	for i, r := range steps[0] {
		o := outcomes[0][i]
		if !o.ok {
			continue
		}
		all.add(o.ms, o.cpuMS)
		if r.write {
			w.add(o.ms, o.cpuMS)
		} else {
			q.add(o.ms, o.cpuMS)
			hits += btoi(o.cacheHit)
		}
	}
	rep.opMetrics(all, "requests, closed loop, one connection")
	rep.info("closed-loop searches: %d, CPU p50 %.3f ms, p99 %.3f ms; wall clock p50 %.3f ms; %d answered from the result cache",
		len(q.cpu), q.cpu.quantile(0.5), q.cpu.quantile(0.99), q.wall.quantile(0.5), hits)
	rep.info("closed-loop ingests: %d, CPU p50 %.3f ms, p90 %.3f ms; wall clock p50 %.3f ms",
		len(w.cpu), w.cpu.quantile(0.5), w.cpu.quantile(0.9), w.wall.quantile(0.5))

	maxRate, top := 0.0, 0
	for k, rate := range serveRates {
		s := k + 1
		var q, w, all, lag latencies
		stepFailed := 0
		for i, r := range steps[s] {
			o := outcomes[s][i]
			lag = append(lag, o.lagMS)
			switch {
			case !o.ok:
				all = append(all, math.Inf(1))
				stepFailed++
			case r.write:
				w = append(w, o.ms)
			default:
				q = append(q, o.ms)
			}
			if o.ok {
				all = append(all, o.ms)
			}
		}
		pass := stepFailed == 0 && all.quantile(serveLimitQ) <= serveLimitMS && float64(backlogs[k]) <= rate*serveLimitMS/1e3
		if pass {
			maxRate, top = rate, k
		}
		rep.info("ladder step %d: %.0f req/s for %.2fs: %d searches p50 %.2f ms p99 %.2f ms, %d ingests p50 %.2f ms p90 %.2f ms, all p90 %.2f ms, lag p99 %.2f ms, backlog at end %d, failed %d, within limit %v",
			k, rate, durs[k], len(q), q.quantile(0.5), q.quantile(0.99), len(w), w.quantile(0.5), w.quantile(0.9), all.quantile(serveLimitQ), lag.quantile(0.99), backlogs[k], stepFailed, pass)
	}
	var lag latencies
	for _, o := range outcomes[top+1] {
		lag = append(lag, o.lagMS)
	}
	rep.set("max_rate_per_s", maxRate, fmt.Sprintf("highest ladder step with p90 <= %.0f ms, nothing failed, no growing backlog", serveLimitMS))
	note := fmt.Sprintf("ladder step at %.0f req/s, the highest within the limit (else the first)", serveRates[top])
	rep.set("bench.generator_lag_ms", lag.quantile(0.99), "p99 lateness of sends, "+note)
	rep.set("bench.backlog_end", float64(backlogs[top]), note)
}

// serveLayers reports the serving, cache, shard and storage metrics of a
// traced ladder from the registry and the explain funnels.
func serveLayers(rep *report, s obs.Snapshot, outcomes [][]outcome, flushes [][2]float64, acked int) {
	var f funnel
	hits, searches := 0, 0
	for _, step := range outcomes {
		for _, o := range step {
			if o.qt == nil && !o.cacheHit {
				continue
			}
			searches++
			if o.cacheHit {
				hits++
				continue
			}
			f.add(walrus.QueryStats{}, o.qt)
		}
	}
	rep.set("cache.hit_ratio", ratio(float64(hits), float64(searches)), fmt.Sprintf("%d of %d searches", hits, searches))
	rep.set("rstar.index_hits_per_query", ratio(f.hits, float64(f.queries)), fmt.Sprintf("explain funnel of %d uncached searches", f.queries))
	rep.set("rstar.nodes_visited_per_query", ratio(f.visits, float64(f.queries)), "")
	rep.set("walrus.probe_yield", ratio(f.retained, f.hits), "regions retrieved / index hits")
	rep.set("shard.probe_skew", median(f.skews), "median over uncached searches")
	rep.set("walrus.query_extract_ms", histMeanMS(s, "walrus_query_extract_seconds"), "fleet histogram mean")
	rep.set("walrus.query_probe_ms", histMeanMS(s, "walrus_query_probe_seconds"), "fleet histogram mean")
	rep.set("walrus.query_score_ms", histMeanMS(s, "walrus_query_score_seconds"), "fleet histogram mean")
	n := counter(s, "walrus_query_total")
	rep.set("match.candidates_per_query", ratio(counter(s, "walrus_query_candidates_total"), n), "")
	rep.set("match.pairs_per_query", ratio(counter(s, "walrus_query_regions_retrieved_total"), n), "")
	rep.set("serve.admission_wait_ms", histMeanMS(s, "walrus_serve_admission_wait_seconds"), "mean over queued requests")
	requests := counter(s, "walrus_serve_search_requests_total") + counter(s, "walrus_serve_ingest_requests_total")
	rep.set("serve.shed_share", ratio(counter(s, "walrus_serve_shed_total"), requests), "")
	var perStep []float64
	var last [2]float64
	for _, fw := range flushes {
		if d := fw[0] - last[0]; d > 0 {
			perStep = append(perStep, (fw[1]-last[1])/d)
		}
		last = fw
	}
	rep.set("serve.writes_per_flush", ratio(last[1], last[0]), fmt.Sprintf("%.0f flushes", last[0]))
	rep.set("walrus.add_ms", histMeanMS(s, "walrus_serve_coalesce_flush_seconds")*ratio(last[0], float64(acked)), "coalescer AddBatch time per ingested image")
	rep.set("walrus.index_publish_ms", indexPublishMS(s, acked), "add minus extraction, from the ingest and publish histograms")
	rep.set("serve.writes_per_flush_spread", spread(perStep), "IQR/median over rate steps")
	storageLayers(rep, s, acked)
	rep.set("walrus.publishes_per_write", ratio(counter(s, "publishes_total"), float64(acked)), "")
	rep.set("walrus.snapshot_acquire_us", 1e3*rep.spans.meanMS("walrus.snapshot"), "fleet snapshots taken every 10 ms while requests run")
}

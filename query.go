//walrus:lint-hot staged query pipeline: probe/refine/score fan-outs
package walrus

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/obs"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
)

// The query pipeline stages. A query runs as a stage plan over one
// immutable Snapshot — extract, probe, the optional refine tier,
// aggregate, score — assembled by planPhaseA/planScore and driven
// by runStages (plan.go). Each stage takes only the snapshot and the
// previous stage's output, so the whole pipeline is lock-free: the
// catalog slices and the pinned index view cannot change underneath it,
// and the per-stage fan-out over the worker pool needs no
// synchronization beyond slot-indexed writes.

// signatureRect builds the index key for a region: its centroid point,
// or its signature bounding box when useBBox is set.
func signatureRect(useBBox bool, r region.Region) rstar.Rect {
	if useBBox {
		rect, err := rstar.NewRect(r.Min, r.Max)
		if err == nil {
			return rect
		}
	}
	return rstar.Point(r.Signature)
}

// probeHit is one probe hit: a matching (query region, target region)
// pair, the image the target region belongs to, and the index payload
// (the target's row in refs and in the signature slab).
type probeHit struct {
	image   int
	payload int64
	pair    match.Pair
}

// extractStage decomposes the query image into regions using the
// snapshot's extractor, so extraction and index probes are bound to the
// same version of the configuration.
func (s *Snapshot) extractStage(im *imgio.Image) ([]region.Region, error) {
	qRegions, err := s.core.ext.Extract(im)
	if err != nil {
		return nil, fmt.Errorf("walrus: extracting query regions: %w", err)
	}
	return qRegions, nil
}

// slabChunkRows is the slab row count of one flat-probe task: small
// enough that a large slab spreads across the worker pool and a chunk
// stays in cache while every query region scans it, and a multiple of
// 64, so every chunk owns whole words of the hit bitsets and tasks never
// share a word.
const slabChunkRows = 4096

// abandonSlack and abandonFloor size the flat probe's early-abandon
// bound: a relative margin far above the few ulps by which two
// evaluations of the same sum of squares can differ (summed in another
// order, or with and without fused multiply-add), and a floor that keeps
// the bound a normal number when ε² would underflow into the
// subnormals, where it would lose its relative precision.
const (
	abandonSlack = 1e-9
	abandonFloor = 1e-300
)

// abandonLimit is the partial squared distance past which a slab row is
// certainly outside the ε-ball: every later term only adds, so euclid's
// sqrt(sum) > ε holds for any row whose partial sum exceeds it. Rows
// below it get euclid's own comparison, so the margin can cost an exact
// check but never a hit.
func abandonLimit(eps float64) float64 {
	return math.Max(eps*eps*(1+abandonSlack), abandonFloor)
}

// flatProbeStage is the probe of centroid-signature databases: an exact
// scan of the snapshot's signature slab. Each row accumulates its
// squared distance to the query region a few dimensions at a time and is
// abandoned once the partial sum passes abandonLimit; a row that
// survives is kept only if euclid — the same comparison the brute-force
// oracle match.PairsWithin makes — puts it within ε, and only if its ref
// is live. The scan fans out over chunks of rows, each task running every
// query region over its chunk while the chunk is cache-hot. Survivors
// are marked in one bitset per query region; a counting pass then carves
// every region's hit list out of a single buffer, in payload order, so
// the scan itself never allocates. The snapshot's slab holds exactly its
// own version's rows, so the probe needs no index view and sees the same
// version on every backend.
func (s *Snapshot) flatProbeStage(ctx context.Context, qRegions []region.Region, p QueryParams, workers int, tc *traceCollector) ([][]probeHit, error) {
	core := s.core
	dim := core.opts.Region.Dim()
	rows := len(core.refs)
	words := (rows + 63) / 64
	chunks := (rows + slabChunkRows - 1) / slabChunkRows
	limit := abandonLimit(p.Epsilon)
	// Bit b of word w in query region qi's bitset marks slab row 64w+b
	// as a live ε-match of that region.
	hitBits := make([]uint64, len(qRegions)*words)
	err := parallel.ForErr(chunks, workers, func(c int) error {
		// The deadline check rides each parallel task: a query whose
		// context expires mid-probe stops scanning.
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := c*slabChunkRows, min((c+1)*slabChunkRows, rows)
		for qi := range qRegions {
			q := qRegions[qi].Signature[:dim]
			set := hitBits[qi*words : (qi+1)*words]
		scan:
			for i := lo; i < hi; i++ {
				row := core.sigs[i*dim : (i+1)*dim]
				row = row[:len(q)]
				// Four dimensions per abandon test, summed pairwise: most
				// rows are out of reach within the first four, and the
				// short dependency chains keep the adds overlapped.
				sum := 0.0
				j := 0
				for ; j+4 <= len(row); j += 4 {
					d0, d1 := q[j]-row[j], q[j+1]-row[j+1]
					d2, d3 := q[j+2]-row[j+2], q[j+3]-row[j+3]
					sum += (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
					if sum > limit {
						continue scan
					}
				}
				for ; j < len(row); j++ {
					d := q[j] - row[j]
					sum += d * d
				}
				if sum > limit || euclid(q, row) > p.Epsilon || core.refs[i].Local < 0 {
					continue
				}
				set[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(qRegions))
	total := 0
	for qi := range qRegions {
		for _, w := range hitBits[qi*words : (qi+1)*words] {
			counts[qi] += bits.OnesCount64(w)
		}
		total += counts[qi]
	}
	buf := make([]probeHit, total)
	perRegion := make([][]probeHit, len(qRegions))
	next := 0
	for qi := range qRegions {
		hits := buf[next : next+counts[qi] : next+counts[qi]]
		next += counts[qi]
		n := 0
		for w, word := range hitBits[qi*words : (qi+1)*words] {
			for word != 0 {
				payload := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				ref := core.refs[payload]
				hits[n] = probeHit{image: ref.Image, payload: int64(payload), pair: match.Pair{Q: qi, T: ref.Local}}
				n++
			}
		}
		perRegion[qi] = hits
		if tc != nil {
			// Every live row was examined; no index node was visited.
			tc.indexHits[qi] = core.liveRegions
			tc.probeOut[qi] = n
		}
	}
	return perRegion, nil
}

// treeProbeStage is the probe of bounding-box databases: every query
// region's box, expanded by epsilon, is searched in the pinned index
// view, and box overlap — which the search tests exactly — is the match
// criterion. The probes only read the pinned view and the snapshot
// catalog, so they fan across the worker pool; each writes its hits into
// its own slot and the slots are merged in query-region order by the
// aggregate stage, which keeps pairsByImage — and therefore scores,
// stats and rankings — identical to the serial query.
// A nil tc (the common case) adds nothing to the probe path; an EXPLAIN
// query passes a collector and each task records its region's slot.
func (s *Snapshot) treeProbeStage(ctx context.Context, qRegions []region.Region, p QueryParams, workers int, tc *traceCollector) ([][]probeHit, error) {
	perRegion := make([][]probeHit, len(qRegions))
	err := parallel.ForErr(len(qRegions), workers, func(qi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		probe := signatureRect(true, qRegions[qi]).Expand(p.Epsilon)
		var entries []rstar.Entry
		var err error
		if tc == nil {
			entries, err = s.view.SearchAll(probe)
		} else {
			var visits int
			entries, visits, err = s.view.SearchAllCounting(probe)
			tc.indexHits[qi] = len(entries)
			tc.nodeVisits[qi] = visits
		}
		if err != nil {
			return err
		}
		hits := make([]probeHit, len(entries))
		n := 0
		for _, e := range entries {
			// Validate the hit against the snapshot catalog. The pinned
			// R*-tree view never yields out-of-version entries, but the
			// GiST view probes the live tree: skip refs the snapshot does
			// not know (inserted later) or has tombstoned (removed later).
			if e.Data < 0 || int(e.Data) >= len(s.core.refs) {
				continue
			}
			ref := s.core.refs[e.Data]
			if ref.Local < 0 {
				continue
			}
			hits[n] = probeHit{image: ref.Image, payload: e.Data, pair: match.Pair{Q: qi, T: ref.Local}}
			n++
		}
		perRegion[qi] = hits[:n]
		if tc != nil {
			tc.probeOut[qi] = n
		}
		return nil
	})
	return perRegion, err
}

// refineStage is the refined matching phase of Section 5.5: candidate
// pairs are re-verified against the finer signatures when both sides
// carry one, filtering each region's hit list in place. Like the probe
// and score stages, every task checks the deadline so an expired
// context stops the refinement fan-out.
func (s *Snapshot) refineStage(ctx context.Context, qRegions []region.Region, perRegion [][]probeHit, p QueryParams, workers int, tc *traceCollector) error {
	if !p.Refine {
		return nil
	}
	return parallel.ForErr(len(perRegion), workers, func(qi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tc != nil {
			// Record the pass-through count up front so regions without a
			// fine signature (refined nowhere below) still fill their slot.
			tc.refineOut[qi] = len(perRegion[qi])
		}
		qr := qRegions[qi]
		if qr.Fine == nil {
			return nil
		}
		bound := p.RefineEpsilon
		if bound == 0 {
			// Scale epsilon by sqrt(fineDim/coarseDim), keeping the
			// per-dimension tolerance of the coarse check.
			bound = p.Epsilon * math.Sqrt(float64(len(qr.Fine))/float64(len(qr.Signature)))
		}
		hits := perRegion[qi]
		n := 0
		for _, h := range hits {
			target := s.core.images[h.image].Regions[h.pair.T]
			if target.Fine != nil && euclid(qr.Fine, target.Fine) > bound {
				continue
			}
			hits[n] = h
			n++
		}
		perRegion[qi] = hits[:n]
		if tc != nil {
			tc.refineOut[qi] = n
		}
		return nil
	})
}

// aggregateStage merges the per-region hit lists in query-region order
// into the per-image pair sets the scorer consumes, counting the total
// regions retrieved. The pair sets are carved out of one flat buffer
// sized by a counting pass — a single allocation however many candidate
// images the probes surfaced.
func aggregateStage(perRegion [][]probeHit) (map[int][]match.Pair, int) {
	counts := make(map[int]int)
	retrieved := 0
	for _, hits := range perRegion {
		for _, h := range hits {
			counts[h.image]++
		}
		retrieved += len(hits)
	}
	buf := make([]match.Pair, retrieved)
	next := 0
	pairsByImage := make(map[int][]match.Pair, len(counts))
	fill := make(map[int]int, len(counts))
	for _, hits := range perRegion {
		for _, h := range hits {
			s, ok := pairsByImage[h.image]
			if !ok {
				c := counts[h.image]
				s = buf[next : next+c]
				next += c
				pairsByImage[h.image] = s
			}
			s[fill[h.image]] = h.pair
			fill[h.image]++
		}
	}
	return pairsByImage, retrieved
}

// scoreStage scores every candidate image, fanning the (independent,
// read-only) match computations across the worker pool. Candidates are
// scored into fixed slots ordered by image index, so the result set is
// schedule-independent. It returns matches with similarity >= p.Tau
// sorted by decreasing similarity, capped at p.Limit.
func (s *Snapshot) scoreStage(ctx context.Context, qRegions []region.Region, qArea int, pairsByImage map[int][]match.Pair, p QueryParams, workers int) ([]Match, error) {
	candidates := make([]int, len(pairsByImage))
	n := 0
	for imgIdx := range pairsByImage {
		candidates[n] = imgIdx
		n++
	}
	sort.Ints(candidates)
	scoreOpts := match.Options{Algorithm: p.Matcher, Denominator: p.Denominator}
	scored := make([]match.Result, len(candidates))
	err := parallel.ForErr(len(candidates), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		imgIdx := candidates[i]
		rec := s.core.images[imgIdx]
		res, err := match.Score(qRegions, rec.Regions, pairsByImage[imgIdx], qArea, rec.W*rec.H, scoreOpts)
		if err != nil {
			return err
		}
		scored[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	matches := make([]Match, len(candidates))
	kept := 0
	for i, imgIdx := range candidates {
		if scored[i].Similarity < p.Tau {
			continue
		}
		rec := s.core.images[imgIdx]
		matches[kept] = Match{
			ID:              rec.ID,
			Similarity:      scored[i].Similarity,
			Pairs:           scored[i].Pairs,
			MatchingRegions: len(pairsByImage[imgIdx]),
		}
		kept++
	}
	matches = matches[:kept]
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Similarity != matches[j].Similarity {
			return matches[i].Similarity > matches[j].Similarity
		}
		return matches[i].ID < matches[j].ID
	})
	if p.Limit > 0 && len(matches) > p.Limit {
		matches = matches[:p.Limit]
	}
	return matches, nil
}

// Query runs the staged query pipeline against the snapshot: the same
// semantics as DB.Query, but over this fixed version, so a caller can
// issue several queries against one consistent state while writers
// commit concurrently.
func (s *Snapshot) Query(im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	return s.QueryContext(context.Background(), im, p)
}

// QueryContext is Query with a deadline: the context is checked between
// pipeline stages and inside every per-region probe and per-candidate
// score task, so a request whose deadline expires stops burning worker
// slots mid-pipeline and returns the context's error. The snapshot is
// unaffected — cancellation never tears published state.
func (s *Snapshot) QueryContext(ctx context.Context, im *imgio.Image, p QueryParams) ([]Match, QueryStats, error) {
	start := statsClock()
	if err := validateParams(p); err != nil {
		return nil, QueryStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	qspan := s.beginQuerySpan(ctx)
	es := qspan.Child("query.extract")
	qRegions, err := s.extractStage(im)
	if err != nil {
		failSpans(es, qspan)
		return nil, QueryStats{}, err
	}
	es.End()
	stats := QueryStats{QueryRegions: len(qRegions), ExtractTime: statsSince(start)}
	return s.finishQuery(ctx, qRegions, im.W*im.H, p, start, stats, qspan)
}

// validateParams rejects parameters no query can honour: ε and τ must be
// finite and non-negative. The tests are written to fail closed — a NaN
// ε slips past a plain "< 0" check and, since every comparison with NaN
// is false, matches every region pair in the database.
func validateParams(p QueryParams) error {
	if !(p.Epsilon >= 0) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("walrus: epsilon %v: %w", p.Epsilon, ErrInvalidParams)
	}
	if !(p.Tau >= 0) || math.IsInf(p.Tau, 0) {
		return fmt.Errorf("walrus: tau %v: %w", p.Tau, ErrInvalidParams)
	}
	return nil
}

// beginQuerySpan opens the live "query" span: a child of the request
// span when the context carries one (the serving layer's root), else a
// fresh root trace on the attached registry, else nil — tracing off, and
// every downstream span call is a nil no-op.
func (s *Snapshot) beginQuerySpan(ctx context.Context) *obs.Span {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		return parent.Child("query")
	}
	if m := s.om.Load(); m != nil {
		return m.reg.StartSpan("query")
	}
	return nil
}

// failSpans ends the still-open spans of a failed query, innermost
// first, marking each with an error attribute so partial traces are
// distinguishable from completed ones.
func failSpans(spans ...*obs.Span) {
	for _, sp := range spans {
		sp.SetAttr("error", 1)
		sp.End()
	}
}

// QueryByID runs the staged pipeline using the stored regions of an
// already-indexed image as the query, skipping extraction entirely: the
// network front-end's "more like this" path. The id is resolved against
// this snapshot's version; ErrUnknownID reports an absent (or removed)
// id.
func (s *Snapshot) QueryByID(ctx context.Context, id string, p QueryParams) ([]Match, QueryStats, error) {
	start := statsClock()
	if err := validateParams(p); err != nil {
		return nil, QueryStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	idx, ok := s.core.byID[id]
	if !ok {
		return nil, QueryStats{}, fmt.Errorf("walrus: query image %q: %w", id, ErrUnknownID)
	}
	qspan := s.beginQuerySpan(ctx)
	es := qspan.Child("query.extract")
	rec := s.core.images[idx]
	es.End()
	stats := QueryStats{QueryRegions: len(rec.Regions), ExtractTime: statsSince(start)}
	return s.finishQuery(ctx, rec.Regions, rec.W*rec.H, p, start, stats, qspan)
}

// finishQuery is the shared tail of the pipeline, entered with the query
// regions already in hand (extracted from an image, or read back from
// the catalog for QueryByID). It assembles the stage plan from the
// parameters and the snapshot's configuration and executes it through
// the shared runner, which hangs one child span per stage off the live
// "query" span qspan (nil when tracing is off); an EXPLAIN context
// additionally routes every stage's counts through a traceCollector into
// the context's QueryTrace.
func (s *Snapshot) finishQuery(ctx context.Context, qRegions []region.Region, qArea int, p QueryParams, start time.Time, stats QueryStats, qspan *obs.Span) ([]Match, QueryStats, error) {
	probeStart := statsClock()
	qt := queryTraceFrom(ctx)
	ex := &stageExec{snap: s, qRegions: qRegions, qArea: qArea, p: p, workers: parallel.Workers(p.Parallelism)}
	if qt != nil {
		ex.tc = newTraceCollector(len(qRegions), s.core.version)
	}

	if err := runStages(ctx, planPhaseA(p, s.core.opts), ex, qspan, "query.", -1); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	stats.RegionsRetrieved = ex.retrieved
	stats.CandidateImages = len(ex.pairsByImage)
	stats.ProbeTime = statsSince(probeStart)
	scoreStart := statsClock()

	if err := runStages(ctx, planScore(), ex, qspan, "query.", -1); err != nil {
		failSpans(qspan)
		return nil, stats, err
	}
	stats.ScoreTime = statsSince(scoreStart)
	stats.Elapsed = statsSince(start)
	if qt != nil {
		qt.fill(qspan, false, p, len(qRegions), []*traceCollector{ex.tc}, stats, len(ex.matches), len(ex.matches), 0)
	}
	s.observeQuery(qspan, stats)
	return ex.matches, stats, nil
}

// QueryScene is DB.QueryScene over this snapshot.
func (s *Snapshot) QueryScene(im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	return s.QuerySceneContext(context.Background(), im, x, y, w, h, p)
}

// QuerySceneContext is QueryScene with a deadline; see QueryContext.
func (s *Snapshot) QuerySceneContext(ctx context.Context, im *imgio.Image, x, y, w, h int, p QueryParams) ([]Match, QueryStats, error) {
	minW := s.core.opts.Region.MinWindow
	if w < minW || h < minW {
		return nil, QueryStats{}, fmt.Errorf("walrus: scene %dx%d smaller than the minimum window %d", w, h, minW)
	}
	crop, err := imgio.Crop(im, x, y, w, h)
	if err != nil {
		return nil, QueryStats{}, fmt.Errorf("walrus: cropping scene: %w", err)
	}
	// Score by coverage of the scene alone: a target that contains the
	// whole scene should score near 1 however large the target is.
	p.Denominator = match.QueryOnly
	return s.QueryContext(ctx, crop, p)
}

// observeQuery finishes one successful query's observability: the live
// query span gains its funnel attributes and ends (recording into the
// span ring), and the same quantities Query returns in QueryStats are
// re-emitted as counters and phase histograms. The span may outlive the
// registry handle — a request-scoped span keeps recording into the
// serving layer's registry even if SetMetrics detaches the database's.
func (s *Snapshot) observeQuery(qspan *obs.Span, stats QueryStats) {
	qspan.SetAttr("query_regions", int64(stats.QueryRegions))
	qspan.SetAttr("regions_retrieved", int64(stats.RegionsRetrieved))
	qspan.SetAttr("candidates", int64(stats.CandidateImages))
	qspan.End()
	m := s.om.Load()
	if m == nil {
		return
	}
	m.queries.Inc()
	m.queryRegions.Add(uint64(stats.QueryRegions))
	m.regionsRetrieved.Add(uint64(stats.RegionsRetrieved))
	m.candidates.Add(uint64(stats.CandidateImages))
	m.querySeconds.Observe(stats.Elapsed.Seconds())
	m.extractSeconds.Observe(stats.ExtractTime.Seconds())
	m.probeSeconds.Observe(stats.ProbeTime.Seconds())
	m.scoreSeconds.Observe(stats.ScoreTime.Seconds())
}

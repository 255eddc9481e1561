package walrus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"walrus/internal/crashfs"
	"walrus/internal/dataset"
	"walrus/internal/imgio"
	"walrus/internal/match"
	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
)

// slabSnapshot wraps a hand-made signature slab in a bare snapshot:
// row i is region 0 of image i, tombstoned when dead[i] is set. The
// flat probe reads nothing else, so its exact keep/reject decisions can
// be pinned on signatures no image would ever produce.
func slabSnapshot(rows [][]float64, dead map[int]bool) *Snapshot {
	core := &snapCore{opts: DefaultOptions()}
	for i, r := range rows {
		ref := regionRef{Image: i}
		if dead[i] {
			ref.Local = -1
		} else {
			core.liveRegions++
		}
		core.refs = append(core.refs, ref)
		core.sigs = append(core.sigs, r...)
	}
	return &Snapshot{core: core}
}

// flatPayloads runs the flat probe for one or more query signatures and
// returns each region's hit payloads, checking along the way that every
// hit names the region and image its slab row belongs to.
func flatPayloads(t *testing.T, s *Snapshot, qs [][]float64, eps float64, workers int) [][]int64 {
	t.Helper()
	qRegions := make([]region.Region, len(qs))
	for i, q := range qs {
		qRegions[i] = region.Region{Signature: q}
	}
	p := DefaultQueryParams()
	p.Epsilon = eps
	tc := newTraceCollector(len(qs), 0)
	perRegion, err := s.flatProbeStage(context.Background(), qRegions, p, workers, tc)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int64, len(qs))
	for qi, hits := range perRegion {
		for _, h := range hits {
			ref := s.core.refs[h.payload]
			if h.pair.Q != qi || h.pair.T != ref.Local || h.image != ref.Image {
				t.Fatalf("hit %+v does not match its slab row's ref %+v", h, ref)
			}
			out[qi] = append(out[qi], h.payload)
		}
		if tc.indexHits[qi] != s.core.liveRegions || tc.nodeVisits[qi] != 0 || tc.probeOut[qi] != len(hits) {
			t.Fatalf("funnel slot %d = (%d hits, %d visits, %d out), want (%d, 0, %d)",
				qi, tc.indexHits[qi], tc.nodeVisits[qi], tc.probeOut[qi], s.core.liveRegions, len(hits))
		}
	}
	return out
}

// brutePayloads is the reference answer: every live row whose euclid
// distance to q is within eps, in payload order.
func brutePayloads(s *Snapshot, q []float64, eps float64) []int64 {
	dim := s.core.opts.Region.Dim()
	var out []int64
	for i, ref := range s.core.refs {
		if ref.Local >= 0 && euclid(q, s.core.sigs[i*dim:(i+1)*dim]) <= eps {
			out = append(out, int64(i))
		}
	}
	return out
}

// TestFlatProbeBoundary pins the early abandon at the edge of the
// ε-ball, where Table 1's "regions retrieved" is decided: for stored
// signatures on the sphere around the query (in random directions, each
// coordinate nudged a few ulps), the flat probe must keep exactly the
// rows euclid(q, t) <= ε keeps with ε set to each row's own distance and
// to one ulp either side of it. The same holds at ε = 0 and at an ε
// whose square lies in the subnormals.
func TestFlatProbeBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := DefaultOptions().Region.Dim()
	q := make([]float64, dim)
	for i := range q {
		q[i] = rng.Float64()
	}
	sphere := func(radius float64) []float64 {
		u := make([]float64, dim)
		norm := 0.0
		for i := range u {
			u[i] = rng.NormFloat64()
			norm += u[i] * u[i]
		}
		norm = math.Sqrt(norm)
		row := make([]float64, dim)
		for i := range row {
			row[i] = q[i] + radius*u[i]/norm
			for n := rng.Intn(5) - 2; n != 0; n -= int(math.Copysign(1, float64(n))) {
				row[i] = math.Nextafter(row[i], math.Copysign(math.Inf(1), float64(n)))
			}
		}
		return row
	}
	var rows [][]float64
	for i := 0; i < 24; i++ {
		rows = append(rows, sphere(0.085))
	}
	for i := 0; i < 8; i++ {
		rows = append(rows, sphere(1e-160))
	}
	// The query itself, a tombstoned copy, and a copy one ulp away in a
	// single coordinate.
	rows = append(rows, append([]float64(nil), q...), append([]float64(nil), q...))
	ulp := append([]float64(nil), q...)
	ulp[dim-1] = math.Nextafter(ulp[dim-1], 2)
	rows = append(rows, ulp)
	dead := map[int]bool{len(rows) - 2: true}
	s := slabSnapshot(rows, dead)

	check := func(eps float64) {
		t.Helper()
		want := brutePayloads(s, q, eps)
		for _, workers := range []int{1, 8} {
			got := flatPayloads(t, s, [][]float64{q}, eps, workers)[0]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%v workers=%d: flat probe kept %v, euclid keeps %v", eps, workers, got, want)
			}
		}
	}
	for k, row := range rows {
		if dead[k] {
			continue
		}
		d := euclid(q, row)
		for _, eps := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 1)} {
			check(eps)
		}
		// The row itself sits exactly on the boundary at ε = d.
		in := func(eps float64) bool {
			for _, p := range flatPayloads(t, s, [][]float64{q}, eps, 1)[0] {
				if p == int64(k) {
					return true
				}
			}
			return false
		}
		if !in(d) || (d > 0 && in(math.Nextafter(d, 0))) {
			t.Fatalf("row %d at distance %v: kept at ε=d %v, kept one ulp inside %v", k, d, in(d), in(math.Nextafter(d, 0)))
		}
	}
	check(0)
}

// TestFlatProbeMatchesBruteForce runs the flat probe over a slab spanning
// several scan chunks, with tombstones and several query regions at
// once, against the brute-force euclid scan: every region's hit list
// must equal it exactly, in payload order, serially and in parallel.
func TestFlatProbeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := DefaultOptions().Region.Dim()
	qs := make([][]float64, 5)
	for i := range qs {
		qs[i] = make([]float64, dim)
		for j := range qs[i] {
			qs[i][j] = rng.Float64()
		}
	}
	rows := make([][]float64, 2*slabChunkRows+123)
	dead := make(map[int]bool)
	for i := range rows {
		rows[i] = make([]float64, dim)
		near := qs[rng.Intn(len(qs))]
		for j := range rows[i] {
			if i%3 == 0 {
				rows[i][j] = rng.Float64()
			} else {
				rows[i][j] = near[j] + 0.04*rng.NormFloat64()
			}
		}
		if rng.Intn(10) == 0 {
			dead[i] = true
		}
	}
	s := slabSnapshot(rows, dead)
	for _, eps := range []float64{0, 0.085, 0.3} {
		for _, workers := range []int{1, 8} {
			got := flatPayloads(t, s, qs, eps, workers)
			for qi, q := range qs {
				want := brutePayloads(s, q, eps)
				if !reflect.DeepEqual(got[qi], want) {
					t.Fatalf("eps=%v workers=%d region %d: flat probe kept %d rows, brute force %d",
						eps, workers, qi, len(got[qi]), len(want))
				}
			}
		}
	}
}

// treeProbeOracle is the R*-tree side of the differential test: each
// query region's ε-envelope box is searched in the snapshot's pinned
// index view, and the box hits are filtered by euclid against the
// signatures held in the image catalog (not the slab). Hits come out in
// tree order.
func treeProbeOracle(tb testing.TB, s *Snapshot, qRegions []region.Region, eps float64) [][]probeHit {
	tb.Helper()
	out := make([][]probeHit, len(qRegions))
	for qi, qr := range qRegions {
		entries, err := s.view.SearchAll(rstar.Point(qr.Signature).Expand(eps))
		if err != nil {
			tb.Fatal(err)
		}
		out[qi] = make([]probeHit, 0, len(entries))
		for _, e := range entries {
			ref := s.core.refs[e.Data]
			if ref.Local < 0 {
				continue
			}
			target := s.core.images[ref.Image].Regions[ref.Local]
			if euclid(qr.Signature, target.Signature) > eps {
				continue
			}
			out[qi] = append(out[qi], probeHit{image: ref.Image, payload: e.Data, pair: match.Pair{Q: qi, T: ref.Local}})
		}
	}
	return out
}

// probeTarget is a database under differential test: a plain DB or a
// sharded fleet, queried through its public API and pinned shard by
// shard for the oracle.
type probeTarget interface {
	Query(im *imgio.Image, p QueryParams) ([]Match, QueryStats, error)
	Add(id string, im *imgio.Image) error
	AddBatch(items []BatchItem, workers int) error
	Remove(id string) (bool, error)
	Close() error
}

// pinShards pins one snapshot per shard of a target.
func pinShards(t *testing.T, b probeTarget) ([]*Snapshot, func()) {
	t.Helper()
	switch b := b.(type) {
	case *DB:
		s, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return []*Snapshot{s}, s.Release
	case *Sharded:
		ss, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return ss.snaps, ss.Release
	}
	t.Fatalf("unknown target %T", b)
	return nil, nil
}

// assertFlatMatchesTree checks one query against one target: on every
// shard the flat probe's per-region hit lists equal the tree oracle's,
// and the public query's RegionsRetrieved, CandidateImages and ranking
// equal what aggregating and scoring the oracle's hits produces. It
// returns the number of matches, so callers can reject a vacuous run.
func assertFlatMatchesTree(t *testing.T, label string, b probeTarget, q *imgio.Image, p QueryParams) int {
	t.Helper()
	ctx := context.Background()
	snaps, release := pinShards(t, b)
	defer release()
	qRegions, err := snaps[0].extractStage(q)
	if err != nil {
		t.Fatal(err)
	}
	var want QueryStats
	perShard := make([][]Match, len(snaps))
	for si, s := range snaps {
		tree := treeProbeOracle(t, s, qRegions, p.Epsilon)
		for _, hits := range tree {
			sort.Slice(hits, func(i, j int) bool { return hits[i].payload < hits[j].payload })
		}
		flat, err := s.flatProbeStage(ctx, qRegions, p, parallel.Workers(p.Parallelism), nil)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range qRegions {
			if !reflect.DeepEqual(flat[qi], tree[qi]) {
				t.Fatalf("%s: shard %d region %d: flat probe %d hits, tree probe %d hits",
					label, si, qi, len(flat[qi]), len(tree[qi]))
			}
		}
		pairs, retrieved := aggregateStage(tree)
		want.RegionsRetrieved += retrieved
		want.CandidateImages += len(pairs)
		unlimited := p
		unlimited.Limit = 0
		perShard[si], err = s.scoreStage(ctx, qRegions, q.W*q.H, pairs, unlimited, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	wantMatches := mergeMatches(perShard, p.Limit)
	got, st, err := b.Query(q, p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameAnswer(t, label, wantMatches, want, got, st)
	return len(got)
}

// probeQueries is the differential test's query set: stored images
// (some later removed) and scenes no stored image equals.
func probeQueries(items []BatchItem) []*imgio.Image {
	return []*imgio.Image{
		items[0].Image, items[11].Image, items[23].Image, items[37].Image,
		scene(green, red, 24, 24, 40), scene(gray, blue, 40, 40, 44),
	}
}

// runProbeWorkload loads a target through a seeded random sequence of
// batch adds, single adds and removes over the 50-image corpus.
func runProbeWorkload(t *testing.T, b probeTarget, items []BatchItem, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(items))
	var batch []BatchItem
	for _, i := range order[:30] {
		batch = append(batch, items[i])
	}
	if err := b.AddBatch(batch, 0); err != nil {
		t.Fatal(err)
	}
	for _, i := range order[30:] {
		if err := b.Add(items[i].ID, items[i].Image); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			victim := items[order[rng.Intn(30)]].ID
			if _, err := b.Remove(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFlatProbeMatchesTree is the differential test of the flat probe
// against the R*-tree probe it replaced for centroid databases: on
// random databases with removals, at shards {1, 4} x Parallelism
// {1, 8}, in memory, on disk, on disk after a clean reopen, and on disk
// after recovery from crash-matrix kill points, the per-region hit
// sets, RegionsRetrieved, CandidateImages and rankings must all be
// identical.
func TestFlatProbeMatchesTree(t *testing.T) {
	items := corpus50(t)
	queries := probeQueries(items)
	check := func(label string, b probeTarget) {
		t.Helper()
		matched := 0
		for _, par := range []int{1, 8} {
			p := DefaultQueryParams()
			p.Parallelism = par
			p.Limit = 10
			for qi, q := range queries {
				matched += assertFlatMatchesTree(t, fmt.Sprintf("%s par=%d q%d", label, par, qi), b, q, p)
			}
		}
		if matched == 0 {
			t.Fatalf("%s: no query matched anything; the comparison is vacuous", label)
		}
	}
	for _, seed := range []int64{1, 2} {
		for _, shards := range []int{1, 4} {
			o := testOptions()
			o.Shards = shards
			for _, disk := range []bool{false, true} {
				label := fmt.Sprintf("seed=%d shards=%d disk=%v", seed, shards, disk)
				dir := filepath.Join(t.TempDir(), "db")
				b := openProbeTarget(t, o, disk, dir, false)
				runProbeWorkload(t, b, items, seed)
				check(label, b)
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				if disk {
					re := openProbeTarget(t, o, true, dir, true)
					check(label+" reopened", re)
					if err := re.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	t.Run("crash", func(t *testing.T) { testFlatProbeAfterCrash(t, items, check) })
}

// openProbeTarget creates (or, with reopen, opens) a target: a plain DB
// for one shard, a sharded fleet otherwise, in memory or in dir.
func openProbeTarget(t *testing.T, o Options, disk bool, dir string, reopen bool) probeTarget {
	t.Helper()
	var b probeTarget
	var err error
	switch {
	case !disk && o.Shards == 1:
		b, err = New(o)
	case !disk:
		b, err = NewSharded(o)
	case o.Shards == 1 && reopen:
		b, err = Open(dir)
	case o.Shards == 1:
		b, err = Create(dir, o)
	case reopen:
		b, err = OpenSharded(dir)
	default:
		b, err = CreateSharded(dir, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testFlatProbeAfterCrash kills a disk database at several points of a
// write workload with removals (torn and clean kills), recovers it, and
// runs the differential check on what recovery rebuilt — the slab is
// derived from the recovered catalog and the replayed WAL deltas.
func testFlatProbeAfterCrash(t *testing.T, items []BatchItem, check func(string, probeTarget)) {
	o := testOptions()
	o.Durability = DurabilityAlways
	ops := []func(db *DB) error{
		func(db *DB) error { _, err := db.Remove(items[2].ID); return err },
		func(db *DB) error { return db.Add(items[30].ID, items[30].Image) },
		func(db *DB) error { return db.Add(items[37].ID, items[37].Image) },
		func(db *DB) error { _, err := db.Remove(items[5].ID); return err },
		func(db *DB) error { return db.Flush() },
		func(db *DB) error { return db.Add(items[41].ID, items[41].Image) },
		func(db *DB) error { _, err := db.Remove(items[11].ID); return err },
		func(db *DB) error { return db.Add(items[44].ID, items[44].Image) },
	}
	// run preloads 24 images unarmed, arms the kill point (0 = never),
	// and runs ops until one fails.
	run := func(in *crashfs.Injector, dir string, kill int64, tear int) {
		o.FS = in.Open
		db, err := Create(dir, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddBatch(items[:24], 0); err != nil {
			t.Fatal(err)
		}
		in.Arm(kill, tear)
		for _, op := range ops {
			if err := op(db); err != nil {
				if !errors.Is(err, crashfs.ErrKilled) {
					t.Fatalf("non-injected error: %v", err)
				}
				break
			}
		}
		db.Close() // errors expected after the kill
	}
	dry := crashfs.New()
	run(dry, filepath.Join(t.TempDir(), "dry"), 0, -1)
	total := dry.Ops()
	for _, kill := range []int64{total / 3, total / 2, 2 * total / 3, total - 1} {
		tear := -1
		if kill%2 == 0 {
			tear = 8
		}
		in := crashfs.New()
		dir := filepath.Join(t.TempDir(), "db")
		run(in, dir, kill, tear)
		if !in.Killed() {
			t.Fatalf("kill point %d of %d never triggered", kill, total)
		}
		in.Arm(0, -1)
		re, err := OpenFS(dir, in.Open)
		if err != nil {
			t.Fatalf("kill=%d: recovery failed: %v", kill, err)
		}
		check(fmt.Sprintf("crash kill=%d/%d tear=%d", kill, total, tear), re)
		re.Close()
	}
}

// BenchmarkProbe compares the two probes on the synthetic dataset at two
// scales: the R*-tree range search followed by the euclid check against
// the flat slab scan, serially, each query being one stored image's
// regions. Run with
//
//	go test -run '^$' -bench BenchmarkProbe
//
// The per-query hit counts of the two probes are checked to agree.
func BenchmarkProbe(b *testing.B) {
	for _, perCategory := range []int{100, 834} {
		ds, err := dataset.Generate(dataset.Options{Seed: 1999, PerCategory: perCategory})
		if err != nil {
			b.Fatal(err)
		}
		items := make([]BatchItem, len(ds.Items))
		for i, it := range ds.Items {
			items[i] = BatchItem{ID: it.ID, Image: it.Image}
		}
		db, err := BuildFrom(DefaultOptions(), items, 0)
		if err != nil {
			b.Fatal(err)
		}
		s, err := db.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		p := DefaultQueryParams()
		queries := make([][]region.Region, 200)
		for i := range queries {
			queries[i], _ = s.RegionsOf(items[i*len(items)/len(queries)].ID)
		}
		hits := func(perRegion [][]probeHit) (n int) {
			for _, h := range perRegion {
				n += len(h)
			}
			return n
		}
		probes := []struct {
			name string
			run  func(q []region.Region) [][]probeHit
		}{
			{"tree", func(q []region.Region) [][]probeHit { return treeProbeOracle(b, s, q, p.Epsilon) }},
			{"flat", func(q []region.Region) [][]probeHit {
				perRegion, err := s.flatProbeStage(context.Background(), q, p, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				return perRegion
			}},
		}
		for _, q := range queries {
			if tree, flat := hits(probes[0].run(q)), hits(probes[1].run(q)); tree != flat {
				b.Fatalf("tree probe found %d hits, flat probe %d", tree, flat)
			}
		}
		for _, pr := range probes {
			b.Run(fmt.Sprintf("regions=%d/%s", s.NumRegions(), pr.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr.run(queries[i%len(queries)])
				}
			})
		}
		s.Release()
	}
}

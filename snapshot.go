package walrus

import (
	"fmt"
	"sync/atomic"
	"time"

	"walrus/internal/region"
	"walrus/internal/rstar"
)

// snapCore is one published version of the catalog. Every field is
// immutable once the core is stored into DB.cur: writers build the next
// version under the exclusive lock and publish it with an atomic pointer
// swap, so readers dereference one pointer and see an internally
// consistent catalog without ever touching db.mu.
//
// The slices share backing arrays with the live catalog copy-on-write:
// appending past a published length never moves published elements, and
// any in-place mutation (Remove's tombstones, byID deletion) first clones
// the slice or map it touches (see the mutable*Locked helpers).
type snapCore struct {
	version uint64
	opts    Options
	ext     *region.Extractor
	images  []imageRecord
	refs    []regionRef
	byID    map[string]int
	// sigs is the flat signature slab (see DB.sigs), always published
	// holding exactly len(refs) dim-strided rows.
	sigs []float64

	liveRegions int
	indexLen    int
	height      int
	diskBacked  bool
}

// indexView is a read-only view of the spatial index bound to one
// snapshot. For the R*-tree it is an epoch-pinned rstar.TreeView whose
// reads bypass the tree's live root entirely; for the GiST backend it is
// an adapter over the (internally locked) live tree — see gistView for
// the weaker isolation that implies.
type indexView interface {
	SearchAll(q rstar.Rect) ([]rstar.Entry, error)
	// SearchAllCounting is SearchAll plus the number of index nodes
	// visited answering the probe — the EXPLAIN path's funnel input. The
	// GiST backend reports 0: it exposes no traversal counter.
	SearchAllCounting(q rstar.Rect) ([]rstar.Entry, int, error)
	Release()
}

// gistView adapts the live GiST to indexView. The GiST has no versioned
// store, so probes observe the live tree: an entry inserted or removed
// after the snapshot was taken can appear in (or vanish from) probe
// results. The probe stage compensates by validating every hit against
// the snapshot's catalog — out-of-range or tombstoned refs are skipped —
// which restores catalog-consistent results at per-probe (rather than
// whole-query) isolation.
type gistView struct{ g *gistIndex }

func (v gistView) SearchAll(q rstar.Rect) ([]rstar.Entry, error) { return v.g.SearchAll(q) }
func (v gistView) Release()                                      {}

func (v gistView) SearchAllCounting(q rstar.Rect) ([]rstar.Entry, int, error) {
	es, err := v.g.SearchAll(q)
	return es, 0, err
}

// Snapshot is a stable, point-in-time view of the database: a published
// catalog version plus an epoch-pinned index view. All methods are
// read-only, lock-free and safe for concurrent use; they observe the
// state as of acquisition no matter how many writers commit afterwards.
//
// A Snapshot pins resources (the R*-tree's superseded node pre-images)
// until released: call Release when done, ideally with defer. Using a
// snapshot after Release is invalid. Snapshots are acquired with
// DB.Snapshot; one-shot readers (DB.Query, DB.Len, ...) acquire and
// release internally.
//
// Snapshot deliberately holds no *DB: nothing reachable from it can
// acquire db.mu or mutate the catalog, and the snapshotsafe analyzer
// enforces that its methods stay that way.
type Snapshot struct {
	core *snapCore
	view indexView

	// met is the metrics handle captured at acquisition; Release must
	// decrement the same activeSnapshots gauge acquisition incremented
	// even if SetMetrics swaps handles in between.
	met      *dbMetrics
	om       *atomic.Pointer[dbMetrics]
	released atomic.Bool
}

// Snapshot returns a stable read view of the current database version.
// The caller must call Release on the result.
func (db *DB) Snapshot() (*Snapshot, error) {
	for {
		core := db.cur.Load()
		if core == nil {
			return nil, fmt.Errorf("walrus: database not initialized")
		}
		var view indexView
		switch t := db.tree.(type) {
		case *rstar.Tree:
			tv, err := t.SnapshotView()
			if err != nil {
				return nil, err
			}
			if tv.Epoch() != core.version {
				// A writer published between loading the core and pinning
				// the tree. Retry with the fresher core; each retry
				// observes a newer version, so the loop cannot cycle.
				tv.Release()
				continue
			}
			view = tv
		case *gistIndex:
			view = gistView{t}
		default:
			return nil, fmt.Errorf("walrus: index backend %T supports no snapshots", db.tree)
		}
		s := &Snapshot{core: core, view: view, om: &db.om}
		if m := db.om.Load(); m != nil {
			s.met = m
			m.snapshotsTotal.Inc()
			m.activeSnapshots.Add(1)
		}
		return s, nil
	}
}

// Release unpins the snapshot, allowing the storage layer to reclaim
// superseded state. Idempotent.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	s.view.Release()
	if s.met != nil {
		s.met.activeSnapshots.Add(-1)
	}
}

// Version is the catalog version this snapshot observes. Versions start
// at 1 and increase by one per committed write operation.
func (s *Snapshot) Version() uint64 { return s.core.version }

// Options returns the database configuration as of the snapshot.
func (s *Snapshot) Options() Options { return s.core.opts }

// Len returns the number of indexed images in the snapshot.
func (s *Snapshot) Len() int { return len(s.core.byID) }

// NumRegions returns the number of live indexed regions in the snapshot.
func (s *Snapshot) NumRegions() int { return s.core.liveRegions }

// IDs returns the ids of all indexed images in insertion order.
func (s *Snapshot) IDs() []string {
	out := make([]string, 0, len(s.core.byID))
	for _, rec := range s.core.images {
		if rec.ID != "" {
			out = append(out, rec.ID)
		}
	}
	return out
}

// RegionsOf returns the regions extracted for an indexed image.
func (s *Snapshot) RegionsOf(id string) ([]region.Region, bool) {
	idx, ok := s.core.byID[id]
	if !ok {
		return nil, false
	}
	return s.core.images[idx].Regions, true
}

// Stats summarizes the snapshot's state.
func (s *Snapshot) Stats() Stats {
	return Stats{
		Images:       len(s.core.byID),
		Regions:      s.core.liveRegions,
		IndexHeight:  s.core.height,
		SignatureDim: s.core.opts.Region.Dim(),
		DiskBacked:   s.core.diskBacked,
	}
}

// publishLocked commits the catalog state under db.mu as the next
// version: it advances the index epoch (R*-tree), builds an immutable
// snapCore sharing the catalog slices, and swaps it into db.cur. After
// the swap the shared slices and map belong to the published version
// too, so the shared flags force the next in-place mutation to clone.
// Caller holds db.mu exclusively.
func (db *DB) publishLocked() {
	m := db.om.Load()
	var start time.Time
	if m != nil {
		start = statsClock()
	}
	db.version++
	if t, ok := db.tree.(*rstar.Tree); ok {
		// The tree's epoch counter and the catalog version advance in
		// lockstep (both only ever move here), so pinning the epoch that
		// equals core.version yields the matching index state.
		db.version = t.PublishEpoch()
	}
	core := &snapCore{
		version:     db.version,
		opts:        db.opts,
		ext:         db.ext,
		images:      db.images,
		refs:        db.refs,
		byID:        db.byID,
		sigs:        db.sigs,
		liveRegions: db.liveRegions,
		indexLen:    db.tree.Len(),
		height:      db.tree.Height(),
		diskBacked:  db.persist != nil,
	}
	db.imagesShared, db.refsShared, db.byIDShared = true, true, true
	db.cur.Store(core)
	if m != nil {
		m.snapshotVersion.Set(int64(core.version))
		m.publishes.Inc()
		m.publishSeconds.Observe(statsSince(start).Seconds())
	}
}

// mutableImagesLocked returns db.images safe for in-place mutation,
// cloning it first if a published snapshot shares the backing array.
// Caller holds db.mu exclusively.
func (db *DB) mutableImagesLocked() []imageRecord {
	if db.imagesShared {
		db.images = append([]imageRecord(nil), db.images...)
		db.imagesShared = false
	}
	return db.images
}

// mutableRefsLocked is mutableImagesLocked for db.refs.
func (db *DB) mutableRefsLocked() []regionRef {
	if db.refsShared {
		db.refs = append([]regionRef(nil), db.refs...)
		db.refsShared = false
	}
	return db.refs
}

// mutableByIDLocked returns db.byID safe for mutation, cloning it first
// if a published snapshot shares it. Unlike slice appends, map writes
// are never safe concurrently with readers, so every write path must go
// through this. Caller holds db.mu exclusively.
func (db *DB) mutableByIDLocked() map[string]int {
	if db.byIDShared {
		clone := make(map[string]int, len(db.byID)+1)
		for id, idx := range db.byID {
			clone[id] = idx
		}
		db.byID = clone
		db.byIDShared = false
	}
	return db.byID
}

//! Per-op allocation regression gate for the store's lean-read paths.
//!
//! The arena-backed store engine exists so that steady-state metadata
//! reads do no heap work: point gets walk arena indices, and listings
//! fold rows through a visitor instead of cloning them into a `Vec`
//! (DESIGN.md §3.8). This test pins that property with the counting
//! allocator's *event* counter ([`MemScope::allocs`]): over thousands of
//! lean-read operations against the fig08d 250k-inode tree, the store
//! layer must allocate **zero** times. A byte-delta pin would miss
//! transient alloc+free pairs; the event counter does not.
//!
//! One lean read here is what a warmed `ReadFile`/`Stat` asks of the
//! store: resolve `/dirXXXXX/fileYYYYY` by component (two children-index
//! probes, two inode fetches), plus the listing-shaped visitor scan and
//! range count the directory paths use.
//!
//! A second gate covers the NameNode side of a warmed `ls`: a
//! [`MetadataCache::listing`] hit on a cached 48-name directory hands out
//! the shared snapshot (a refcount bump), so it too must allocate zero
//! times — no per-name `String`, no `Vec` copy.
//!
//! Like `bootstrap_budget.rs`, the file only exists under
//! `--features alloc-stats` (verify.sh runs it in release); a plain
//! `cargo test` compiles it to nothing.
//!
//! [`MemScope::allocs`]: lambda_allocstats::MemScope::allocs
#![cfg(feature = "alloc-stats")]

use std::rc::Rc;

use lambda_allocstats as mem;
use lambda_namespace::{interned, DfsPath, MetadataCache, MetadataSchema, ROOT_INODE_ID};
use lambda_sim::params::StoreParams;
use lambda_sim::{SimDuration, SimRng};
use lambda_store::{Db, NameKey};

#[global_allocator]
static COUNTING_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// The fig08d 250k-inode point: 5103 directories of 48 files.
const DIRS: usize = 5_103;
const FILES_PER_DIR: usize = 48;
/// Lean-read ops measured under the zero-alloc scope.
const OPS: usize = 10_000;

/// One `#[test]` for both gates: the counting allocator is process-global,
/// so a second test (or the harness reporting one that just finished) on
/// another thread would charge its allocations to the open scope.
#[test]
fn lean_reads_do_not_allocate_at_250k_inodes() {
    assert!(mem::active(), "counting allocator must be registered");
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let schema = MetadataSchema::install(&db);
    schema.bootstrap_tree(&db, &DfsPath::root(), DIRS, FILES_PER_DIR);

    // Pre-intern the probe keys: the interner is shared namespace
    // infrastructure, not per-op work.
    let dir_keys: Vec<NameKey> =
        (0..DIRS).map(|d| NameKey::new(interned(&format!("dir{d:05}")))).collect();
    let file_keys: Vec<NameKey> =
        (0..FILES_PER_DIR).map(|f| NameKey::new(interned(&format!("file{f:05}")))).collect();

    let mut rng = SimRng::new(0x250_0000);
    let lean_read = |rng: &mut SimRng, rows_seen: &mut usize| {
        let dname = dir_keys[rng.pick_index(dir_keys.len())];
        let fname = file_keys[rng.pick_index(file_keys.len())];
        // Component-wise resolution, exactly as `peek_chain` probes.
        let dir_id = db.peek(schema.children, &(ROOT_INODE_ID, dname)).expect("dir exists");
        let dir = db.peek(schema.inodes, &dir_id).expect("dir inode");
        assert!(dir.is_dir());
        let file_id = db.peek(schema.children, &(dir_id, fname)).expect("file exists");
        let file = db.peek(schema.inodes, &file_id).expect("file inode");
        assert_eq!(file.parent, dir_id);
        // The listing shape: visitor scan + header-only count, no `Vec`.
        let listing = (dir_id, NameKey::MIN)..(dir_id + 1, NameKey::MIN);
        let mut in_dir = 0usize;
        db.peek_range_with(schema.children, listing.clone(), |_, _| in_dir += 1);
        assert_eq!(in_dir, FILES_PER_DIR);
        assert_eq!(db.peek_count_range(schema.children, listing), FILES_PER_DIR);
        *rows_seen += in_dir;
    };

    // Warm once outside the scope (first-touch effects, if any, are not
    // per-op costs).
    let mut rows_seen = 0usize;
    for _ in 0..16 {
        lean_read(&mut rng, &mut rows_seen);
    }

    let scope = mem::GLOBAL.scope();
    for _ in 0..OPS {
        lean_read(&mut rng, &mut rows_seen);
    }
    let allocs = scope.allocs();
    assert_eq!(
        allocs, 0,
        "lean reads allocated: {allocs} allocation events over {OPS} ops \
         (point gets and visitor scans must stay heap-free)"
    );
    assert!(rows_seen > 0);

    cached_listing_hits_do_not_allocate();
}

/// The NameNode side of a warmed `ls`: [`MetadataCache::listing`] hits on
/// a cached 48-name directory.
fn cached_listing_hits_do_not_allocate() {
    let dir = 7;
    let names: Rc<[&'static str]> =
        (0..FILES_PER_DIR).map(|f| interned(&format!("file{f:05}"))).collect();
    let mut cache = MetadataCache::new(1024);
    cache.cache_listing(dir, names);
    let mut names_seen = 0usize;
    // Warm once outside the scope.
    names_seen += cache.listing(dir).expect("listing cached").len();

    let scope = mem::GLOBAL.scope();
    for _ in 0..OPS {
        let hit = cache.listing(dir).expect("listing cached");
        names_seen += hit.len();
    }
    let allocs = scope.allocs();
    assert_eq!(
        allocs, 0,
        "listing hits allocated: {allocs} allocation events over {OPS} hits \
         (a hit must share the cached snapshot, not copy it)"
    );
    assert_eq!(names_seen, (OPS + 1) * FILES_PER_DIR);
    assert_eq!(cache.stats().listing_hits, OPS as u64 + 1);
}

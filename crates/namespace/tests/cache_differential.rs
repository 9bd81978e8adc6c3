//! Differential property test: the arena-trie [`MetadataCache`] against
//! [`Model`], a path-keyed reference held here.
//!
//! Identical operation sequences — inserts, lookups, prefix lookups,
//! LRU-pressured evictions (tiny capacity), inode and prefix
//! invalidations, and listing-cache traffic — must produce identical
//! return values, identical [`CacheStats`], and the same surviving-entry
//! set. The model keeps the pre-overhaul trie's rules: every touch takes a
//! fresh LRU tick, eviction drops the least recently touched entry (even
//! an ancestor of a cached chain), an inode id lives at one path at a
//! time, and the listing cache is flushed wholesale when its bound is hit.
//! The trie's node pruning has no observable of its own: a path with no
//! entry at or under it behaves the same whether or not its node exists.

use std::collections::HashMap;
use std::iter::once;

use lambda_namespace::{
    interned, CacheStats, DfsPath, Inode, InodeId, MetadataCache, ROOT_INODE_ID,
};
use proptest::prelude::*;

/// One cache operation, path-addressed; ids are assigned deterministically
/// by the driver so the cache and the model see identical arguments.
#[derive(Debug, Clone)]
enum Op {
    InsertChain(DfsPath),
    Lookup(DfsPath),
    LookupPrefix(DfsPath),
    InvalidateInode(DfsPath),
    InvalidatePrefix(DfsPath),
    CacheListing(DfsPath, Vec<String>),
    Listing(DfsPath),
    UpdateListing(DfsPath, String, bool),
    InvalidateListing(DfsPath),
}

/// Tiny component alphabet so sequences revisit, nest, and collide.
fn component() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "dd", "e"]).prop_map(str::to_string)
}

fn path() -> impl Strategy<Value = DfsPath> {
    prop::collection::vec(component(), 1..=4)
        .prop_map(|comps| format!("/{}", comps.join("/")).parse().expect("valid path"))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => path().prop_map(Op::InsertChain),
        3 => path().prop_map(Op::Lookup),
        2 => path().prop_map(Op::LookupPrefix),
        1 => path().prop_map(Op::InvalidateInode),
        1 => path().prop_map(Op::InvalidatePrefix),
        1 => (path(), prop::collection::vec(component(), 0..3))
            .prop_map(|(p, names)| Op::CacheListing(p, names)),
        1 => path().prop_map(Op::Listing),
        1 => (path(), component(), any::<bool>())
            .prop_map(|(p, n, present)| Op::UpdateListing(p, n, present)),
        1 => path().prop_map(Op::InvalidateListing),
    ]
}

/// Assigns stable inode ids per path (first-use order) and builds the
/// root-to-target directory chain `insert_chain` expects. All inodes are
/// directories so any path can later appear as an ancestor.
struct IdSpace {
    ids: HashMap<DfsPath, InodeId>,
    next: InodeId,
}

impl IdSpace {
    fn new() -> Self {
        IdSpace { ids: HashMap::new(), next: ROOT_INODE_ID + 1 }
    }

    fn id_of(&mut self, path: &DfsPath) -> InodeId {
        if path.is_root() {
            return ROOT_INODE_ID;
        }
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.ids.insert(path.clone(), id);
        id
    }

    fn chain_for(&mut self, path: &DfsPath) -> Vec<Inode> {
        let mut chain = vec![Inode::root()];
        let mut parent_id = ROOT_INODE_ID;
        let ancestors: Vec<DfsPath> = path.ancestors().collect();
        for node in ancestors.into_iter().skip(1).chain(std::iter::once(path.clone())) {
            let id = self.id_of(&node);
            let name = node.file_name().expect("non-root").to_string();
            chain.push(Inode::directory(id, parent_id, name));
            parent_id = id;
        }
        chain
    }
}

/// Root-to-target prefixes of `path`, the root first.
fn prefixes(path: &DfsPath) -> Vec<DfsPath> {
    path.ancestors().chain(once(path.clone())).collect()
}

/// The cache's contract as a path-keyed map.
struct Model {
    capacity: usize,
    listing_capacity: usize,
    tick: u64,
    /// Cached entries by path, with the tick of their last touch.
    entries: HashMap<DfsPath, (Inode, u64)>,
    /// The path each cached inode id is placed at.
    placed: HashMap<InodeId, DfsPath>,
    listings: HashMap<InodeId, Vec<&'static str>>,
    stats: CacheStats,
}

impl Model {
    fn new(capacity: usize, listing_capacity: usize) -> Self {
        Model {
            capacity,
            listing_capacity,
            tick: 0,
            entries: HashMap::new(),
            placed: HashMap::new(),
            listings: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn touch(&mut self, path: &DfsPath) -> Inode {
        self.tick += 1;
        let entry = self.entries.get_mut(path).expect("touched entry is cached");
        entry.1 = self.tick;
        entry.0.clone()
    }

    /// Drops the entry at `path` with its placement and listing.
    fn clear(&mut self, path: &DfsPath) -> bool {
        let Some((inode, _)) = self.entries.remove(path) else { return false };
        self.placed.remove(&inode.id);
        self.listings.remove(&inode.id);
        true
    }

    fn insert_chain(&mut self, path: &DfsPath, chain: &[Inode]) {
        for (at, inode) in prefixes(path).into_iter().zip(chain) {
            match self.placed.get(&inode.id) {
                Some(old) if *old != at => {
                    let old = old.clone();
                    self.clear(&old);
                }
                _ => {}
            }
            if self.entries.insert(at.clone(), (inode.clone(), 0)).is_none() {
                self.stats.insertions += 1;
            }
            self.placed.insert(inode.id, at.clone());
            self.touch(&at);
        }
        while self.entries.len() > self.capacity {
            let (lru, _) =
                self.entries.iter().min_by_key(|(_, (_, tick))| *tick).expect("over capacity");
            let lru = lru.clone();
            self.clear(&lru);
            self.stats.evictions += 1;
        }
    }

    fn lookup(&mut self, path: &DfsPath) -> Option<Vec<Inode>> {
        let chain = prefixes(path);
        if !chain.iter().all(|p| self.entries.contains_key(p)) {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        Some(chain.iter().map(|p| self.touch(p)).collect())
    }

    fn lookup_prefix(&mut self, path: &DfsPath) -> Vec<Inode> {
        let cached: Vec<DfsPath> =
            prefixes(path).into_iter().take_while(|p| self.entries.contains_key(p)).collect();
        cached.iter().map(|p| self.touch(p)).collect()
    }

    fn invalidate_inode(&mut self, id: InodeId) -> bool {
        let Some(path) = self.placed.get(&id).cloned() else { return false };
        if self.clear(&path) {
            self.stats.invalidations += 1;
        }
        true
    }

    fn invalidate_prefix(&mut self, prefix: &DfsPath) -> u64 {
        let under: Vec<DfsPath> =
            self.entries.keys().filter(|p| p.starts_with(prefix)).cloned().collect();
        for path in &under {
            self.clear(path);
        }
        let dropped = under.len() as u64;
        self.stats.prefix_invalidations += dropped;
        dropped
    }

    fn cache_listing(&mut self, dir: InodeId, mut names: Vec<&'static str>) {
        if self.listings.len() >= self.listing_capacity {
            self.listings.clear();
        }
        names.sort_unstable();
        self.listings.insert(dir, names);
    }

    fn listing(&mut self, dir: InodeId) -> Option<Vec<&'static str>> {
        let names = self.listings.get(&dir).cloned();
        match names {
            Some(_) => self.stats.listing_hits += 1,
            None => self.stats.listing_misses += 1,
        }
        names
    }

    fn update_listing(&mut self, dir: InodeId, name: &'static str, present: bool) {
        let Some(names) = self.listings.get_mut(&dir) else { return };
        match (names.binary_search(&name), present) {
            (Ok(idx), false) => {
                names.remove(idx);
            }
            (Err(idx), true) => names.insert(idx, name),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op returns the same value from the cache and the model, and
    /// the final stats, sizes, and surviving-entry sets are identical.
    #[test]
    fn arena_cache_matches_baseline(ops in prop::collection::vec(op(), 1..80)) {
        // Capacity far below the reachable path universe so the LRU is
        // constantly evicting; a small listing cache for the same reason.
        let mut cache = MetadataCache::with_listing_capacity(5, 3);
        let mut model = Model::new(5, 3);
        let mut ids = IdSpace::new();

        for op in &ops {
            match op {
                Op::InsertChain(p) => {
                    let chain = ids.chain_for(p);
                    cache.insert_chain(p, &chain);
                    model.insert_chain(p, &chain);
                }
                Op::Lookup(p) => {
                    prop_assert_eq!(cache.lookup(p), model.lookup(p));
                }
                Op::LookupPrefix(p) => {
                    prop_assert_eq!(cache.lookup_prefix(p), model.lookup_prefix(p));
                }
                Op::InvalidateInode(p) => {
                    let id = ids.id_of(p);
                    prop_assert_eq!(cache.invalidate_inode(id), model.invalidate_inode(id));
                }
                Op::InvalidatePrefix(p) => {
                    prop_assert_eq!(cache.invalidate_prefix(p), model.invalidate_prefix(p));
                }
                Op::CacheListing(p, names) => {
                    let dir = ids.id_of(p);
                    let names: Vec<&'static str> = names.iter().map(|n| interned(n)).collect();
                    cache.cache_listing(dir, names.clone().into());
                    model.cache_listing(dir, names);
                }
                Op::Listing(p) => {
                    let dir = ids.id_of(p);
                    prop_assert_eq!(
                        cache.listing(dir).as_deref(),
                        model.listing(dir).as_deref(),
                        "listing of {}", p
                    );
                }
                Op::UpdateListing(p, name, present) => {
                    let dir = ids.id_of(p);
                    cache.update_listing(dir, interned(name), *present);
                    model.update_listing(dir, interned(name), *present);
                }
                Op::InvalidateListing(p) => {
                    let dir = ids.id_of(p);
                    cache.invalidate_listing(dir);
                    model.listings.remove(&dir);
                }
            }
            // Size must track op-by-op, not just at the end: a transient
            // divergence (say, an over-eager eviction that a later
            // invalidation masks) would hide otherwise.
            prop_assert_eq!(cache.len(), model.entries.len());
        }

        prop_assert_eq!(cache.stats(), model.stats);
        // Surviving-entry set: every id ever assigned is cached in one
        // iff it is cached in the other. `contains_inode` takes `&self`,
        // so probing does not perturb LRU order or the counters.
        for (p, &id) in &ids.ids {
            prop_assert_eq!(
                cache.contains_inode(id),
                model.placed.contains_key(&id),
                "surviving-entry sets diverge at {} (inode {})", p, id
            );
        }
    }
}

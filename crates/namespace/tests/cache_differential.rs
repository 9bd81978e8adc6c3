//! Differential property test: the arena-trie [`MetadataCache`] against
//! the retained pre-overhaul implementation
//! ([`lambda_namespace::cache_baseline::MetadataCache`]).
//!
//! Identical operation sequences — inserts, lookups, prefix lookups,
//! LRU-pressured evictions (tiny capacity), inode and prefix
//! invalidations, and listing-cache traffic — must produce identical
//! return values, identical [`CacheStats`], and the same surviving-entry
//! set. The overhaul changed the representation (slab nodes, symbol keys,
//! intrusive LRU links); it must not have changed a single observable.

use std::collections::HashMap;

use lambda_namespace::cache_baseline::MetadataCache as BaselineCache;
use lambda_namespace::{interned, DfsPath, Inode, InodeId, MetadataCache, ROOT_INODE_ID};
use proptest::prelude::*;

/// One cache operation, path-addressed; ids are assigned deterministically
/// by the driver so both caches see byte-identical arguments.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op returns the same value from both caches, and the final
    /// stats, sizes, and surviving-entry sets are identical.
    #[test]
    fn arena_cache_matches_baseline(ops in prop::collection::vec(op(), 1..80)) {
        // Capacity far below the reachable path universe so the LRU is
        // constantly evicting; a small listing cache for the same reason.
        let mut arena = MetadataCache::with_listing_capacity(5, 3);
        let mut baseline = BaselineCache::with_listing_capacity(5, 3);
        let mut ids = IdSpace::new();

        for op in &ops {
            match op {
                Op::InsertChain(p) => {
                    let chain = ids.chain_for(p);
                    arena.insert_chain(p, &chain);
                    baseline.insert_chain(p, &chain);
                }
                Op::Lookup(p) => {
                    prop_assert_eq!(arena.lookup(p), baseline.lookup(p));
                }
                Op::LookupPrefix(p) => {
                    prop_assert_eq!(arena.lookup_prefix(p), baseline.lookup_prefix(p));
                }
                Op::InvalidateInode(p) => {
                    let id = ids.id_of(p);
                    prop_assert_eq!(arena.invalidate_inode(id), baseline.invalidate_inode(id));
                }
                Op::InvalidatePrefix(p) => {
                    prop_assert_eq!(arena.invalidate_prefix(p), baseline.invalidate_prefix(p));
                }
                Op::CacheListing(p, names) => {
                    let dir = ids.id_of(p);
                    arena.cache_listing(dir, names.iter().map(|n| interned(n)).collect());
                    baseline.cache_listing(dir, names.clone());
                }
                Op::Listing(p) => {
                    let dir = ids.id_of(p);
                    // The arena cache hands out a shared snapshot of
                    // interned names, the baseline an owned `Vec<String>`:
                    // they must agree name by name.
                    let (shared, owned) = (arena.listing(dir), baseline.listing(dir));
                    prop_assert_eq!(shared.is_some(), owned.is_some());
                    if let (Some(shared), Some(owned)) = (shared, owned) {
                        prop_assert_eq!(shared.len(), owned.len());
                        for (i, (s, o)) in shared.iter().zip(&owned).enumerate() {
                            prop_assert_eq!(*s, o.as_str(), "listing of {} diverges at name {}", p, i);
                        }
                    }
                }
                Op::UpdateListing(p, name, present) => {
                    let dir = ids.id_of(p);
                    arena.update_listing(dir, interned(name), *present);
                    baseline.update_listing(dir, name, *present);
                }
                Op::InvalidateListing(p) => {
                    let dir = ids.id_of(p);
                    arena.invalidate_listing(dir);
                    baseline.invalidate_listing(dir);
                }
            }
            // Size must track op-by-op, not just at the end: a transient
            // divergence (say, an over-eager eviction that a later
            // invalidation masks) would hide otherwise.
            prop_assert_eq!(arena.len(), baseline.len());
        }

        prop_assert_eq!(arena.stats(), baseline.stats());
        // Surviving-entry set: every id ever assigned is cached in one
        // iff it is cached in the other. `contains_inode` takes `&self`,
        // so probing does not perturb LRU order or the counters.
        let assigned: Vec<(DfsPath, InodeId)> =
            ids.ids.iter().map(|(p, &id)| (p.clone(), id)).collect();
        for (p, id) in assigned {
            prop_assert_eq!(
                arena.contains_inode(id),
                baseline.contains_inode(id),
                "surviving-entry sets diverge at {} (inode {})", p, id
            );
        }
    }
}

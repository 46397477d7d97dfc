//! Content-addressed caches behind the service.
//!
//! Two layers, both bounded and FIFO-evicting:
//!
//! - [`SceneCache`]: `(scene, detail)` → built scene. Scene synthesis +
//!   BVH construction dominates small-job latency, and every request
//!   for the same scene reuses one immutable [`Scene`] behind an `Arc`,
//!   with its BVH's content hash computed once per build. The expensive
//!   build runs *outside* the cache lock, so concurrent workers never
//!   serialize on a build.
//! - [`ResultCache`]: canonical-key hash → finished response body. A
//!   hit returns the stored bytes verbatim, which is what makes the
//!   "cache hits are bitwise identical to fresh runs" guarantee hold
//!   by construction.

use cooprt_scenes::{Scene, SceneId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit hash of `bytes` (the result cache's address function).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hit/miss counters shared by both caches.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheStats {
    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Bounded FIFO map: the storage shared by both caches.
#[derive(Debug)]
struct FifoMap<K, V> {
    entries: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V> FifoMap<K, V> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        FifoMap {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Inserts `value`, evicting the oldest entry past capacity. Keeps
    /// the existing value on key collision (first writer wins — both
    /// computed the same immutable content).
    fn insert(&mut self, key: K, value: V) {
        if self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, value);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A built scene with its BVH's content hash.
#[derive(Clone, Debug)]
pub struct CachedScene {
    /// The scene, shared by every request for it.
    pub scene: Arc<Scene>,
    /// `scene.image.content_hash()`, computed once when the scene was
    /// built (a response's `bvh_hash`).
    pub bvh_hash: u64,
}

/// `(scene, detail)` → built [`Scene`], bounded, FIFO-evicting.
#[derive(Debug)]
pub struct SceneCache {
    map: Mutex<FifoMap<(SceneId, u32), CachedScene>>,
    stats: CacheStats,
}

impl SceneCache {
    /// A cache holding at most `capacity` built scenes.
    pub fn new(capacity: usize) -> Self {
        SceneCache {
            map: Mutex::new(FifoMap::new(capacity)),
            stats: CacheStats::default(),
        }
    }

    /// Returns the cached scene, building (and caching) it on a miss.
    ///
    /// The build runs outside the lock; if two workers race on the same
    /// key, both build and the first insert wins — wasted work bounded
    /// by one build, never a stall of every other key behind the lock.
    pub fn get_or_build(&self, id: SceneId, detail: u32) -> CachedScene {
        if let Some(cached) = self.lock().get(&(id, detail)).cloned() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let scene = id.build(detail);
        let built = CachedScene {
            bvh_hash: scene.image.content_hash(),
            scene: Arc::new(scene),
        };
        let mut map = self.lock();
        map.insert((id, detail), built.clone());
        map.get(&(id, detail)).cloned().unwrap_or(built)
    }

    /// Scenes currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no scene is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FifoMap<(SceneId, u32), CachedScene>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Canonical-key hash → finished response body, bounded, FIFO-evicting.
#[derive(Debug)]
pub struct ResultCache {
    map: Mutex<FifoMap<u64, Arc<Vec<u8>>>>,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache holding at most `capacity` response bodies.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            map: Mutex::new(FifoMap::new(capacity)),
            stats: CacheStats::default(),
        }
    }

    /// The stored body for `key`, counting the hit/miss.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        let found = self.lock().get(&key).cloned();
        match &found {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a freshly computed body under `key`.
    pub fn insert(&self, key: u64, body: Arc<Vec<u8>>) {
        self.lock().insert(key, body);
    }

    /// Bodies currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no body is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FifoMap<u64, Arc<Vec<u8>>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn result_cache_hits_return_the_stored_bytes_and_count() {
        let cache = ResultCache::new(4);
        assert!(cache.get(7).is_none());
        let body = Arc::new(b"{\"x\": 1}".to_vec());
        cache.insert(7, Arc::clone(&body));
        let hit = cache.get(7).expect("stored body");
        assert!(Arc::ptr_eq(&hit, &body), "hit is the stored allocation");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
    }

    #[test]
    fn fifo_eviction_drops_the_oldest_entry() {
        let cache = ResultCache::new(2);
        cache.insert(1, Arc::new(vec![1]));
        cache.insert(2, Arc::new(vec![2]));
        cache.insert(3, Arc::new(vec![3])); // evicts key 1
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn scene_cache_reuses_the_built_scene() {
        let cache = SceneCache::new(2);
        let a = cache.get_or_build(SceneId::Wknd, 1);
        let b = cache.get_or_build(SceneId::Wknd, 1);
        assert!(
            Arc::ptr_eq(&a.scene, &b.scene),
            "second request reuses the build"
        );
        assert_eq!(a.bvh_hash, a.scene.image.content_hash());
        assert_eq!(b.bvh_hash, a.bvh_hash);
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
        // A different detail level is a distinct entry.
        let c = cache.get_or_build(SceneId::Wknd, 2);
        assert!(!Arc::ptr_eq(&a.scene, &c.scene));
        assert_eq!(c.bvh_hash, c.scene.image.content_hash());
        assert_ne!(c.bvh_hash, a.bvh_hash);
        assert_eq!(cache.len(), 2);
    }
}

//! An LRU cache of encoded artifacts keyed by pattern label.
//!
//! A multi-tenant service compiling patterns on demand pays the full
//! determinize + SFA-construction cost on every miss; this cache lets
//! identical pattern namespaces share one encoded artifact. One cache
//! serves one compile configuration, so the label alone is the key.
//! Values are the *encoded bytes* (`Arc<Vec<u8>>`), not live automata:
//! they are immutable, their footprint is exact (byte-size accounting
//! falls out for free), and a hit re-enters the same zero-copy
//! [`load`](crate::load) path a warm file would.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

struct CacheInner {
    entries: HashMap<String, Entry>,
    /// Monotone access counter; smallest tick = least recently used.
    tick: u64,
    bytes: usize,
}

struct Entry {
    value: Arc<Vec<u8>>,
    tick: u64,
}

/// A byte-bounded LRU cache of encoded artifacts, safe to share across
/// service threads.
pub struct CompileCache {
    max_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl CompileCache {
    /// Creates a cache that holds at most `max_bytes` of encoded
    /// artifacts. A single artifact larger than the bound is still
    /// admitted (and evicts everything else) so a hot oversized pattern
    /// is not recompiled on every request.
    pub fn new(max_bytes: usize) -> CompileCache {
        CompileCache {
            max_bytes,
            inner: Mutex::new(CacheInner { entries: HashMap::new(), tick: 0, bytes: 0 }),
        }
    }

    /// The locked cache state. A poisoned lock means a holder panicked
    /// between updating the map and its byte total, so neither can be
    /// trusted any more.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("compile cache lock poisoned by a panicking holder")
    }

    /// Looks up `label`, refreshing its recency on a hit.
    pub fn get(&self, label: &str) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(label)?;
        entry.tick = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Inserts an encoded artifact, evicting least-recently-used entries
    /// until the byte bound holds again.
    pub fn insert(&self, label: String, value: Arc<Vec<u8>>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(label, Entry { value: Arc::clone(&value), tick }) {
            inner.bytes -= old.value.len();
        }
        inner.bytes += value.len();
        // O(entries) eviction scan; caches here hold tens of artifacts,
        // not thousands, so a heap isn't worth the bookkeeping.
        while inner.bytes > self.max_bytes && inner.entries.len() > 1 {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty cache has an LRU entry");
            let evicted = inner.entries.remove(&lru).expect("LRU key was just observed");
            inner.bytes -= evicted.value.len();
        }
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_respects_recency_and_byte_bound() {
        let cache = CompileCache::new(100);
        cache.insert(String::from("a"), Arc::new(vec![0; 40]));
        cache.insert(String::from("b"), Arc::new(vec![0; 40]));
        // Touch "a" so "b" is the LRU, then overflow the bound.
        assert!(cache.get("a").is_some());
        cache.insert(String::from("c"), Arc::new(vec![0; 40]));
        assert!(cache.get("b").is_none(), "LRU entry should be evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 80);
    }

    #[test]
    fn oversized_entries_are_admitted_alone() {
        let cache = CompileCache::new(10);
        cache.insert(String::from("small"), Arc::new(vec![0; 5]));
        cache.insert(String::from("huge"), Arc::new(vec![0; 500]));
        assert!(cache.get("huge").is_some(), "oversized artifact stays cached");
        assert_eq!(cache.len(), 1, "everything else is evicted for it");
    }
}

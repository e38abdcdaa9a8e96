//! A sharded, size-budgeted LRU map — the hot tier of the certificate
//! cache.
//!
//! The map is generic over its value type so the policy is testable in
//! isolation; the certificate store instantiates it with certificate
//! store lines (`Arc<str>`) and charges each entry its byte-accurate
//! `canvas-cert-cache/2` store-line cost, so "occupancy" means exactly
//! "bytes this cache holds", which are the bytes it would write to disk.
//!
//! Design constraints, in order:
//!
//! * **Bounded**: the sum of per-shard occupancies never exceeds the
//!   configured budget. The budget is split evenly across shards (integer
//!   division, so the split can only round *down*), and an entry larger
//!   than a whole shard budget is refused rather than admitted over
//!   budget.
//! * **Concurrent**: one mutex per shard; a key always hashes to the same
//!   shard, so two requests for different keys usually touch different
//!   locks.
//! * **Deterministic**: shard selection is a pure function of the key and
//!   the shard count, and eviction order within a shard is strict
//!   recency, so a fixed sequential workload always evicts the same
//!   entries in the same order.
//!
//! Eviction is the *caller's* policy decision: [`ShardedLru::insert`]
//! returns the evicted `(key, value)` pairs (least-recent first) and the
//! store decides whether they spill to the disk tier or are simply
//! forgotten.

use std::collections::HashMap;
use std::sync::Mutex;

const NIL: usize = usize::MAX;

/// Shards smaller than this are pointless: a single certificate line is
/// a few hundred bytes, so tiny budgets collapse to fewer shards instead
/// of starving every shard below the size of one entry.
const MIN_SHARD_BYTES: u64 = 4096;

struct Node<V> {
    key: u64,
    value: V,
    cost: usize,
    prev: usize,
    next: usize,
}

struct Shard<V> {
    map: HashMap<u64, usize>,
    slab: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    /// Most-recently-used slot (`NIL` when empty).
    head: usize,
    /// Least-recently-used slot (`NIL` when empty).
    tail: usize,
    bytes: usize,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.slab[idx].as_ref().expect("linked slot");
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p].as_mut().expect("prev slot").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].as_mut().expect("next slot").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let n = self.slab[idx].as_mut().expect("slot");
            n.prev = NIL;
            n.next = self.head;
        }
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].as_mut().expect("head slot").prev = idx,
        }
        self.head = idx;
    }

    fn promote(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Removes and returns the least-recently-used entry.
    fn pop_lru(&mut self) -> Option<(u64, V)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        let node = self.slab[idx].take().expect("tail slot");
        self.free.push(idx);
        self.map.remove(&node.key);
        self.bytes -= node.cost;
        Some((node.key, node.value))
    }

    fn remove(&mut self, key: u64) -> Option<(V, usize)> {
        let idx = self.map.remove(&key)?;
        self.unlink(idx);
        let node = self.slab[idx].take().expect("mapped slot");
        self.free.push(idx);
        self.bytes -= node.cost;
        Some((node.value, node.cost))
    }

    fn insert_front(&mut self, key: u64, value: V, cost: usize) {
        let node = Node { key, value, cost, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.bytes += cost;
        self.push_front(idx);
    }
}

/// A concurrent LRU map with a global byte budget split across shards.
///
/// `None` budget means unbounded: nothing is ever evicted and the map
/// behaves like a plain concurrent hash map with recency tracking.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard byte budget (`None` = unbounded).
    shard_budget: Option<usize>,
    /// The configured global budget, for reporting.
    budget: Option<u64>,
}

impl<V: Clone> ShardedLru<V> {
    /// Builds a map with at most `shards` shards and a global byte budget.
    ///
    /// Small budgets collapse to fewer shards (at least one) so no shard's
    /// slice rounds down below the size of a typical entry.
    #[must_use]
    pub fn new(budget: Option<u64>, shards: usize) -> Self {
        let requested = shards.max(1);
        let nshards = match budget {
            None => requested,
            Some(b) => {
                let supportable = usize::try_from(b / MIN_SHARD_BYTES).unwrap_or(usize::MAX);
                requested.min(supportable.max(1))
            }
        };
        let shard_budget =
            budget.map(|b| usize::try_from(b / nshards as u64).unwrap_or(usize::MAX));
        ShardedLru {
            shards: (0..nshards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget,
            budget,
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // the store's keys are already fingerprint hashes, so plain modulo
        // spreads them evenly; the shard count is fixed at construction,
        // making shard selection deterministic
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    fn lock(m: &Mutex<Shard<V>>) -> std::sync::MutexGuard<'_, Shard<V>> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks `key` up and promotes it to most-recently-used.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = Self::lock(self.shard(key));
        let idx = *shard.map.get(&key)?;
        shard.promote(idx);
        Some(shard.slab[idx].as_ref().expect("mapped slot").value.clone())
    }

    /// Looks `key` up without touching recency (for stale-seed reads).
    pub fn peek(&self, key: u64) -> Option<V> {
        let shard = Self::lock(self.shard(key));
        let idx = *shard.map.get(&key)?;
        Some(shard.slab[idx].as_ref().expect("mapped slot").value.clone())
    }

    /// Inserts `value` under `key` at `cost` bytes, evicting
    /// least-recently-used entries until the shard fits its budget again.
    ///
    /// Returns the evicted `(key, value)` pairs, least-recent first. An
    /// entry costlier than a whole shard budget cannot fit and comes
    /// straight back in the eviction list (after evicting nothing else);
    /// re-inserting an existing key replaces it in place (a replacement is
    /// not an eviction).
    pub fn insert(&self, key: u64, value: V, cost: usize) -> Vec<(u64, V)> {
        let mut shard = Self::lock(self.shard(key));
        shard.remove(key);
        let mut evicted = Vec::new();
        if let Some(budget) = self.shard_budget {
            if cost > budget {
                // too big for the shard even when empty: refuse admission
                // rather than blow the budget (the caller spills it)
                evicted.push((key, value));
                return evicted;
            }
            while shard.bytes + cost > budget {
                match shard.pop_lru() {
                    Some(kv) => evicted.push(kv),
                    None => break,
                }
            }
        }
        shard.insert_front(key, value, cost);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: u64) -> Option<V> {
        Self::lock(self.shard(key)).remove(key).map(|(v, _)| v)
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).map.len()).sum()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current occupancy in (store-line) bytes, summed across shards.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock(s).bytes as u64).sum()
    }

    /// The configured global budget (`None` = unbounded).
    #[must_use]
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget
    }

    /// The number of shards actually in use.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Clones out every resident entry (order unspecified).
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, V)> {
        let mut all = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = Self::lock(s);
            let mut idx = shard.head;
            while idx != NIL {
                let n = shard.slab[idx].as_ref().expect("linked slot");
                all.push((n.key, n.value.clone()));
                idx = n.next;
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_map_never_evicts() {
        let lru: ShardedLru<String> = ShardedLru::new(None, 4);
        for k in 0..100u64 {
            assert!(lru.insert(k, format!("v{k}"), 1000).is_empty());
        }
        assert_eq!(lru.len(), 100);
        assert_eq!(lru.bytes(), 100_000);
        assert_eq!(lru.get(7), Some("v7".to_string()));
    }

    #[test]
    fn single_shard_evicts_in_recency_order() {
        let lru: ShardedLru<u64> = ShardedLru::new(Some(4096), 1);
        // three entries of 1500 bytes: the third insert overflows 4096
        assert!(lru.insert(1, 10, 1500).is_empty());
        assert!(lru.insert(2, 20, 1500).is_empty());
        let evicted = lru.insert(3, 30, 1500);
        assert_eq!(evicted, vec![(1, 10)], "least-recently-used goes first");
        // touching 2 makes 3 the LRU
        assert_eq!(lru.get(2), Some(20));
        let evicted = lru.insert(4, 40, 1500);
        assert_eq!(evicted, vec![(3, 30)]);
        assert!(lru.bytes() <= 4096);
    }

    #[test]
    fn oversized_entries_are_refused_not_admitted() {
        let lru: ShardedLru<u64> = ShardedLru::new(Some(4096), 1);
        lru.insert(1, 10, 100);
        let evicted = lru.insert(2, 20, 5000);
        assert_eq!(evicted, vec![(2, 20)], "the oversized entry itself bounces");
        assert_eq!(lru.len(), 1, "resident entries are untouched");
        assert_eq!(lru.get(1), Some(10));
    }

    #[test]
    fn replacement_is_not_an_eviction() {
        let lru: ShardedLru<u64> = ShardedLru::new(Some(4096), 1);
        lru.insert(1, 10, 2000);
        let evicted = lru.insert(1, 11, 3000);
        assert!(evicted.is_empty());
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.bytes(), 3000);
        assert_eq!(lru.get(1), Some(11));
    }

    #[test]
    fn tiny_budgets_collapse_to_fewer_shards() {
        let lru: ShardedLru<u64> = ShardedLru::new(Some(4096), 8);
        assert_eq!(lru.shard_count(), 1, "4 KiB cannot support 8 useful shards");
        // the whole budget is usable, not 1/8th of it
        assert!(lru.insert(1, 10, 3000).is_empty());
        let big: ShardedLru<u64> = ShardedLru::new(Some(1 << 20), 8);
        assert_eq!(big.shard_count(), 8);
    }

    #[test]
    fn peek_does_not_promote() {
        let lru: ShardedLru<u64> = ShardedLru::new(Some(4096), 1);
        lru.insert(1, 10, 1500);
        lru.insert(2, 20, 1500);
        assert_eq!(lru.peek(1), Some(10));
        // 1 is still the LRU despite the peek
        let evicted = lru.insert(3, 30, 1500);
        assert_eq!(evicted, vec![(1, 10)]);
    }

    #[test]
    fn entries_walk_every_shard() {
        let lru: ShardedLru<u64> = ShardedLru::new(Some(1 << 20), 4);
        for k in 0..32u64 {
            lru.insert(k, k * 2, 64);
        }
        let mut all = lru.entries();
        all.sort_unstable();
        assert_eq!(all.len(), 32);
        assert!(all.iter().all(|&(k, v)| v == k * 2));
    }
}

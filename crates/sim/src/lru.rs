//! An O(1) least-recently-used recency list with a dirty bit per entry.
//!
//! Both LRU models of the simulator — the OS page cache of the software
//! platforms and the SSD-internal DRAM — keep a bounded set of pages, evict
//! the least recently used one when a new page arrives, and remember which
//! pages are dirty. [`LruList`] is that structure: a doubly linked list
//! threaded through a slab of entries with `u32` links, plus a
//! [`FastHashMap`] from key to slab slot. The head is the most recently used
//! entry, the tail is the eviction victim.
//!
//! Every operation is O(1). The slab grows lazily, one entry per new key,
//! up to the capacity; from then on a new key reuses the evicted tail's
//! slot, so a full list serves any number of further accesses without a
//! heap allocation.

use serde::{Deserialize, Serialize};

use crate::FastHashMap;

/// Link value meaning "no entry".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Entry {
    key: u64,
    prev: u32,
    next: u32,
    dirty: bool,
}

/// The entry [`LruList::insert`] evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// Key of the evicted entry.
    pub key: u64,
    /// Whether the evicted entry was dirty (needs a write-back).
    pub dirty: bool,
}

/// A bounded recency list: O(1) touch, insert and LRU eviction.
///
/// # Example
///
/// ```
/// use hams_sim::{Evicted, LruList};
///
/// let mut lru = LruList::new(2);
/// assert_eq!(lru.insert(1, true), None);
/// assert_eq!(lru.insert(2, false), None);
/// assert!(lru.touch(1, false)); // 2 is now least recently used
/// assert_eq!(lru.insert(3, false), Some(Evicted { key: 2, dirty: false }));
/// assert_eq!(lru.insert(4, false), Some(Evicted { key: 1, dirty: true }));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LruList {
    capacity: usize,
    slots: FastHashMap<u64, u32>,
    entries: Vec<Entry>,
    head: u32,
    tail: u32,
}

impl LruList {
    /// An empty list holding at most `capacity` keys. Nothing is allocated
    /// until the first insert.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruList {
            capacity,
            slots: FastHashMap::default(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of resident keys.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `key` is resident (without touching recency).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.slots.contains_key(&key)
    }

    /// If `key` is resident, makes it the most recently used entry, marks it
    /// dirty when `dirty` is set (a clean touch never cleans it) and returns
    /// `true`; otherwise changes nothing and returns `false`.
    pub fn touch(&mut self, key: u64, dirty: bool) -> bool {
        let Some(&slot) = self.slots.get(&key) else {
            return false;
        };
        self.entries[slot as usize].dirty |= dirty;
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        true
    }

    /// Makes `key` the most recently used entry. A resident key is touched
    /// as by [`LruList::touch`] and nothing is evicted. A new key enters
    /// with the given dirty bit; when the list is full it takes the slot of
    /// the least recently used entry, which is returned. A zero-capacity
    /// list holds nothing and evicts nothing.
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<Evicted> {
        if self.capacity == 0 || self.touch(key, dirty) {
            return None;
        }
        let fresh = Entry {
            key,
            prev: NIL,
            next: NIL,
            dirty,
        };
        let (slot, evicted) = if self.entries.len() < self.capacity {
            // Reached before any index could truncate.
            let slot = self.entries.len() as u32;
            assert!(slot != NIL, "LruList holds fewer than u32::MAX entries");
            self.entries.push(fresh);
            (slot, None)
        } else {
            let slot = self.tail;
            self.unlink(slot);
            let victim = std::mem::replace(&mut self.entries[slot as usize], fresh);
            self.slots.remove(&victim.key);
            (
                slot,
                Some(Evicted {
                    key: victim.key,
                    dirty: victim.dirty,
                }),
            )
        };
        self.slots.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    /// Resident keys with their dirty bits, most recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let entry = self.entries.get(slot as usize)?;
            slot = entry.next;
            Some((entry.key, entry.dirty))
        })
    }

    /// Dirty resident keys, in ascending key order.
    #[must_use]
    pub fn dirty_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| e.dirty)
            .map(|e| e.key)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Marks every resident key clean, leaving recency unchanged.
    pub fn clean_all(&mut self) {
        for entry in &mut self.entries {
            entry.dirty = false;
        }
    }

    /// Drops every resident key, keeping the allocated storage for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.entries.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.entries[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.entries[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.entries[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &LruList) -> Vec<u64> {
        lru.iter().map(|(k, _)| k).collect()
    }

    fn evicted(key: u64, dirty: bool) -> Option<Evicted> {
        Some(Evicted { key, dirty })
    }

    #[test]
    fn iteration_runs_from_most_to_least_recent() {
        let mut lru = LruList::new(4);
        for k in [1, 2, 3] {
            lru.insert(k, false);
        }
        assert_eq!(keys(&lru), vec![3, 2, 1]);
        assert!(lru.touch(1, false));
        assert_eq!(keys(&lru), vec![1, 3, 2]);
        assert!(lru.touch(2, false));
        assert_eq!(keys(&lru), vec![2, 1, 3]);
        assert!(!lru.touch(9, true));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn full_list_evicts_the_tail_and_reuses_its_slot() {
        let mut lru = LruList::new(3);
        for k in 0..3 {
            assert_eq!(lru.insert(k, k == 1), None);
        }
        let storage = lru.entries.capacity();
        for k in 3..1_000u64 {
            let evicted = lru.insert(k, false).expect("full list evicts");
            assert_eq!(evicted.key, k - 3);
            assert_eq!(evicted.dirty, k == 4);
            assert_eq!(lru.len(), 3);
        }
        assert_eq!(lru.entries.capacity(), storage);
        assert_eq!(keys(&lru), vec![999, 998, 997]);
    }

    #[test]
    fn resident_insert_refreshes_and_only_ever_adds_dirt() {
        let mut lru = LruList::new(2);
        lru.insert(1, true);
        lru.insert(2, false);
        assert_eq!(lru.insert(1, false), None);
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![(1, true), (2, false)]);
        assert!(lru.touch(2, true));
        assert_eq!(lru.dirty_keys(), vec![1, 2]);
        assert_eq!(lru.insert(3, false), evicted(1, true));
    }

    #[test]
    fn capacity_zero_holds_nothing_and_capacity_one_swaps() {
        let mut empty = LruList::new(0);
        assert_eq!(empty.insert(1, true), None);
        assert!(empty.is_empty() && !empty.contains(1));

        let mut one = LruList::new(1);
        assert_eq!(one.insert(1, true), None);
        assert_eq!(one.insert(1, false), None);
        assert_eq!(one.insert(2, false), evicted(1, true));
        assert_eq!(keys(&one), vec![2]);
    }

    #[test]
    fn clean_all_and_clear() {
        let mut lru = LruList::new(4);
        lru.insert(5, true);
        lru.insert(3, true);
        lru.insert(4, false);
        assert_eq!(lru.dirty_keys(), vec![3, 5]);
        lru.clean_all();
        assert!(lru.dirty_keys().is_empty());
        assert_eq!(keys(&lru), vec![4, 3, 5]);
        lru.clear();
        assert!(lru.is_empty() && !lru.contains(5));
        assert_eq!(lru.insert(7, false), None);
        assert_eq!(keys(&lru), vec![7]);
    }
}

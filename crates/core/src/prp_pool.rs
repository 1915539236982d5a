//! The PRP pool: page-sized clone slots in the pinned NVDIMM region.
//!
//! When the HAMS cache logic evicts a page whose NVDIMM slot is about to be
//! refilled, it clones the page into the PRP pool and retargets the eviction
//! command's PRP pointer at the clone (§V-B, Fig. 14). The NVMe controller
//! then DMAs from the clone, so the cache slot can be reused immediately and
//! no eviction hazard or redundant eviction can occur.

use hams_sim::{FastHashMap, Nanos};
use serde::{Deserialize, Serialize};

/// A clone currently occupying a PRP-pool slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloneSlot {
    /// MoS page number whose data is parked here.
    pub mos_page: u64,
    /// Time at which the eviction command reading this clone completes.
    pub release_at: Nanos,
}

/// Fixed-size pool of page clone slots.
///
/// # Example
///
/// ```
/// use hams_core::PrpPool;
/// use hams_sim::Nanos;
///
/// let mut pool = PrpPool::new(2);
/// let slot = pool.allocate(42, Nanos::from_micros(100), Nanos::ZERO).unwrap();
/// assert!(pool.holds_page(42));
/// pool.release(slot);
/// assert!(!pool.holds_page(42));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrpPool {
    slots: Vec<Option<CloneSlot>>,
    by_page: FastHashMap<u64, usize>,
    high_water: usize,
}

impl PrpPool {
    /// Creates a pool with `slots` clone slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "PRP pool needs at least one slot");
        PrpPool {
            slots: vec![None; slots],
            by_page: FastHashMap::default(),
            high_water: 0,
        }
    }

    /// Number of slots in the pool.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.by_page.len()
    }

    /// Maximum simultaneous occupancy seen so far.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Returns `true` if a clone of `mos_page` is parked in the pool.
    #[must_use]
    pub fn holds_page(&self, mos_page: u64) -> bool {
        self.by_page.contains_key(&mos_page)
    }

    /// MoS pages currently parked in the pool (in-flight eviction data that
    /// survives a power failure because the pool lives in NVDIMM).
    #[must_use]
    pub fn parked_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.by_page.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Allocates a slot for a clone of `mos_page` whose eviction completes at
    /// `release_at`. Expired slots (release time at or before `now`) are
    /// reclaimed first. Returns `None` if the pool is genuinely full.
    pub fn allocate(&mut self, mos_page: u64, release_at: Nanos, now: Nanos) -> Option<usize> {
        // Reclaim any slot whose eviction has already completed.
        for i in 0..self.slots.len() {
            if let Some(slot) = self.slots[i] {
                if slot.release_at <= now {
                    self.by_page.remove(&slot.mos_page);
                    self.slots[i] = None;
                }
            }
        }
        let idx = self.slots.iter().position(Option::is_none)?;
        self.slots[idx] = Some(CloneSlot {
            mos_page,
            release_at,
        });
        self.by_page.insert(mos_page, idx);
        self.high_water = self.high_water.max(self.by_page.len());
        Some(idx)
    }

    /// Releases slot `index` explicitly (its eviction command completed).
    pub fn release(&mut self, index: usize) {
        if let Some(slot) = self.slots.get_mut(index).and_then(Option::take) {
            self.by_page.remove(&slot.mos_page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_round_trip() {
        let mut p = PrpPool::new(2);
        let a = p.allocate(1, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        let b = p.allocate(2, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.high_water(), 2);
        assert_eq!(p.parked_pages(), vec![1, 2]);
        p.release(a);
        assert_eq!(p.in_use(), 1);
        assert!(!p.holds_page(1));
    }

    #[test]
    fn full_pool_rejects_until_expiry() {
        let mut p = PrpPool::new(1);
        p.allocate(1, Nanos::from_micros(10), Nanos::ZERO).unwrap();
        assert!(p
            .allocate(2, Nanos::from_micros(20), Nanos::from_micros(5))
            .is_none());
        // After the first clone's eviction completes, its slot is reclaimable.
        assert!(p
            .allocate(2, Nanos::from_micros(20), Nanos::from_micros(10))
            .is_some());
        assert!(!p.holds_page(1));
        assert!(p.holds_page(2));
    }

    #[test]
    fn releasing_unused_slot_is_harmless() {
        let mut p = PrpPool::new(2);
        p.release(1);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = PrpPool::new(0);
    }
}

//! SSD-internal DRAM buffer/cache.
//!
//! Modern SSDs, ULL-Flash included, front their flash array with a large DRAM
//! that caches reads and absorbs writes (§II-C). The paper's advanced HAMS
//! removes this DRAM entirely — incoming data is already buffered by the
//! NVDIMM — which both saves energy (the DRAM draws 17 % more power than a
//! 32-chip flash complex) and removes a redundant copy. The model therefore
//! exposes the buffer as an optional component with explicit hit/miss/dirty
//! accounting and an O(1) LRU policy.

use hams_sim::{Evicted, LruList, Nanos};
use serde::{Deserialize, Serialize};

/// Outcome of offering an access to the internal DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DramOutcome {
    /// The page was present (read hit or write hit); access served at DRAM
    /// latency.
    Hit,
    /// The page was absent; the caller must go to flash. For writes the page
    /// has now been installed dirty.
    Miss,
    /// The install evicted a dirty page that must be programmed to flash.
    MissEvictDirty {
        /// Logical page number of the evicted dirty page.
        evicted_lpn: u64,
    },
}

/// Accounting counters for the internal DRAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Read or write accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty pages evicted (write-backs forced by capacity).
    pub dirty_evictions: u64,
    /// Total accesses (energy accounting: each costs a DRAM row activation).
    pub accesses: u64,
}

impl DramStats {
    /// Hit rate in `[0, 1]`; zero when no accesses have occurred.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU page cache standing in for the SSD-internal DRAM, built on
/// [`LruList`].
///
/// # Example
///
/// ```
/// use hams_flash::{InternalDram, DramOutcome};
/// use hams_sim::Nanos;
///
/// let mut dram = InternalDram::new(2, Nanos::from_nanos(200));
/// assert_eq!(dram.read(1), DramOutcome::Miss);
/// dram.install(1, false);
/// assert_eq!(dram.read(1), DramOutcome::Hit);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InternalDram {
    access_latency: Nanos,
    resident: LruList,
    stats: DramStats,
}

impl InternalDram {
    /// Creates a buffer holding up to `capacity_pages` pages, each access
    /// costing `access_latency`.
    #[must_use]
    pub fn new(capacity_pages: usize, access_latency: Nanos) -> Self {
        InternalDram {
            access_latency,
            resident: LruList::new(capacity_pages),
            stats: DramStats::default(),
        }
    }

    /// Capacity in pages.
    #[must_use]
    pub fn capacity_pages(&self) -> usize {
        self.resident.capacity()
    }

    /// Latency of one buffer access.
    #[must_use]
    pub fn access_latency(&self) -> Nanos {
        self.access_latency
    }

    /// Accounting counters.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Number of resident pages.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Number of resident dirty pages.
    #[must_use]
    pub fn dirty_pages(&self) -> usize {
        self.resident.iter().filter(|&(_, dirty)| dirty).count()
    }

    /// Offers a read of `lpn`; hits refresh recency.
    pub fn read(&mut self, lpn: u64) -> DramOutcome {
        self.stats.accesses += 1;
        if self.resident.touch(lpn, false) {
            self.stats.hits += 1;
            DramOutcome::Hit
        } else {
            self.stats.misses += 1;
            DramOutcome::Miss
        }
    }

    /// Offers a write of `lpn`: a hit dirties the resident copy, a miss
    /// installs the page dirty (write-back policy), possibly evicting.
    pub fn write(&mut self, lpn: u64) -> DramOutcome {
        self.stats.accesses += 1;
        if self.resident.touch(lpn, true) {
            self.stats.hits += 1;
            return DramOutcome::Hit;
        }
        self.stats.misses += 1;
        match self.install(lpn, true) {
            Some(lpn) => DramOutcome::MissEvictDirty { evicted_lpn: lpn },
            None => DramOutcome::Miss,
        }
    }

    /// Installs a copy of `lpn` (e.g. after a read miss fill). Returns the
    /// LPN of a dirty page evicted to make room, if any. Re-installing a
    /// resident page only refreshes its recency: nothing is evicted and a
    /// dirty page stays dirty.
    pub fn install(&mut self, lpn: u64, dirty: bool) -> Option<u64> {
        match self.resident.insert(lpn, dirty)? {
            Evicted { key, dirty: true } => {
                self.stats.dirty_evictions += 1;
                Some(key)
            }
            Evicted { dirty: false, .. } => None,
        }
    }

    /// Drains every dirty page (a flush or pre-shutdown write-back), returning
    /// their LPNs and marking them clean.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let dirty = self.resident.dirty_keys();
        self.resident.clean_all();
        dirty
    }

    /// Discards all resident pages (a power failure with no supercapacitor
    /// protection loses the buffer contents).
    pub fn discard_all(&mut self) -> usize {
        let n = self.resident.len();
        self.resident.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(cap: usize) -> InternalDram {
        InternalDram::new(cap, Nanos::from_nanos(200))
    }

    #[test]
    fn read_miss_then_hit() {
        let mut d = dram(4);
        assert_eq!(d.read(1), DramOutcome::Miss);
        d.install(1, false);
        assert_eq!(d.read(1), DramOutcome::Hit);
        assert!((d.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn write_installs_dirty() {
        let mut d = dram(4);
        assert_eq!(d.write(7), DramOutcome::Miss);
        assert_eq!(d.dirty_pages(), 1);
        assert_eq!(d.write(7), DramOutcome::Hit);
        assert_eq!(d.dirty_pages(), 1);
    }

    #[test]
    fn lru_evicts_oldest_and_reports_dirty_evictions() {
        let mut d = dram(2);
        d.write(1);
        d.write(2);
        // Touch page 1 so page 2 becomes LRU.
        d.read(1);
        let outcome = d.write(3);
        assert_eq!(outcome, DramOutcome::MissEvictDirty { evicted_lpn: 2 });
        assert_eq!(d.stats().dirty_evictions, 1);
        assert_eq!(d.resident_pages(), 2);
    }

    #[test]
    fn clean_evictions_are_silent() {
        let mut d = dram(1);
        d.install(1, false);
        assert_eq!(d.write(2), DramOutcome::Miss);
        assert_eq!(d.stats().dirty_evictions, 0);
    }

    #[test]
    fn flush_returns_sorted_dirty_set_and_cleans() {
        let mut d = dram(8);
        d.write(5);
        d.write(3);
        d.install(9, false);
        assert_eq!(d.flush_dirty(), vec![3, 5]);
        assert_eq!(d.dirty_pages(), 0);
        assert!(d.flush_dirty().is_empty());
    }

    #[test]
    fn discard_models_power_loss() {
        let mut d = dram(8);
        d.write(1);
        d.write(2);
        assert_eq!(d.discard_all(), 2);
        assert_eq!(d.resident_pages(), 0);
        assert_eq!(d.read(1), DramOutcome::Miss);
    }

    #[test]
    fn reinstalling_a_resident_page_evicts_nothing_and_keeps_it_dirty() {
        let mut d = dram(2);
        d.write(1);
        d.write(2);
        assert_eq!(d.install(2, false), None);
        assert_eq!(d.resident_pages(), 2);
        assert_eq!(d.dirty_pages(), 2);
        assert_eq!(d.stats().dirty_evictions, 0);
        // The re-install refreshed page 2, so page 1 is the next victim.
        assert_eq!(d.install(3, false), Some(1));
        assert_eq!(d.flush_dirty(), vec![2]);
    }

    #[test]
    fn zero_capacity_buffer_never_holds_pages() {
        let mut d = dram(0);
        assert_eq!(d.write(1), DramOutcome::Miss);
        assert_eq!(d.resident_pages(), 0);
        assert_eq!(d.read(1), DramOutcome::Miss);
    }
}

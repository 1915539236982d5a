//! Property-based tests for the flash substrate: FTL mapping invariants,
//! internal-DRAM bounds and device-level durability semantics.

use hams_flash::{DramOutcome, FlashGeometry, Ftl, InternalDram, SsdConfig, SsdDevice};
use hams_nvme::{NvmeCommand, PrpList};
use hams_sim::Nanos;
use proptest::prelude::*;
use std::collections::HashMap;

/// The naive reference for the internal DRAM: resident pages in a `Vec`,
/// most recent first, each with its dirty bit.
#[derive(Default)]
struct ModelDram {
    pages: Vec<(u64, bool)>,
}

impl ModelDram {
    /// Moves a resident `lpn` to the front, OR-ing in `dirty`.
    fn touch(&mut self, lpn: u64, dirty: bool) -> bool {
        let Some(i) = self.pages.iter().position(|&(p, _)| p == lpn) else {
            return false;
        };
        let (_, was_dirty) = self.pages.remove(i);
        self.pages.insert(0, (lpn, was_dirty || dirty));
        true
    }

    /// `InternalDram::install`: the dirty victim, if one was evicted.
    fn install(&mut self, capacity: usize, lpn: u64, dirty: bool) -> Option<u64> {
        if capacity == 0 || self.touch(lpn, dirty) {
            return None;
        }
        let victim = if self.pages.len() == capacity {
            self.pages.pop().filter(|v| v.1).map(|v| v.0)
        } else {
            None
        };
        self.pages.insert(0, (lpn, dirty));
        victim
    }

    fn dirty_sorted(&self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self.pages.iter().filter(|p| p.1).map(|p| p.0).collect();
        dirty.sort_unstable();
        dirty
    }
}

proptest! {
    /// The internal DRAM matches the naive `Vec`-ordered model on random
    /// read/write/install/flush/discard streams: the same outcome and dirty
    /// victim on every op, the same flushed and discarded sets, the same
    /// counters, at capacities 0 and 1 too.
    #[test]
    fn internal_dram_matches_the_reference_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec((0u8..20, 0u64..24), 1..400),
    ) {
        let mut dram = InternalDram::new(capacity, Nanos::from_nanos(200));
        let mut model = ModelDram::default();
        let (mut hits, mut accesses, mut dirty_evictions) = (0, 0, 0);
        for (op, lpn) in ops {
            match op {
                0..=5 => {
                    accesses += 1;
                    let expected = if model.touch(lpn, false) {
                        hits += 1;
                        DramOutcome::Hit
                    } else {
                        DramOutcome::Miss
                    };
                    prop_assert_eq!(dram.read(lpn), expected);
                }
                6..=11 => {
                    accesses += 1;
                    let expected = if model.touch(lpn, true) {
                        hits += 1;
                        DramOutcome::Hit
                    } else {
                        match model.install(capacity, lpn, true) {
                            Some(evicted_lpn) => {
                                dirty_evictions += 1;
                                DramOutcome::MissEvictDirty { evicted_lpn }
                            }
                            None => DramOutcome::Miss,
                        }
                    };
                    prop_assert_eq!(dram.write(lpn), expected);
                }
                12..=17 => {
                    let dirty = op % 2 == 1;
                    let expected = model.install(capacity, lpn, dirty);
                    dirty_evictions += u64::from(expected.is_some());
                    prop_assert_eq!(dram.install(lpn, dirty), expected);
                }
                18 => {
                    let expected = model.dirty_sorted();
                    for entry in &mut model.pages {
                        entry.1 = false;
                    }
                    prop_assert_eq!(dram.flush_dirty(), expected);
                }
                _ => {
                    prop_assert_eq!(dram.discard_all(), model.pages.len());
                    model.pages.clear();
                }
            }
            prop_assert_eq!(dram.resident_pages(), model.pages.len());
            prop_assert_eq!(dram.dirty_pages(), model.dirty_sorted().len());
        }
        prop_assert_eq!(dram.flush_dirty(), model.dirty_sorted());
        let s = dram.stats();
        prop_assert_eq!((s.hits, s.accesses), (hits, accesses));
        prop_assert_eq!(s.misses, accesses - hits);
        prop_assert_eq!(s.dirty_evictions, dirty_evictions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of writes and trims, every mapped LPN resolves to a
    /// unique PPN within the device, and trimmed LPNs resolve to nothing.
    #[test]
    fn ftl_mapping_stays_consistent(ops in proptest::collection::vec((0u64..96, any::<bool>()), 1..400)) {
        let mut ftl = Ftl::new(FlashGeometry::tiny(), 0.25);
        let mut model: HashMap<u64, bool> = HashMap::new();
        for (lpn, is_trim) in ops {
            if is_trim {
                ftl.trim(lpn);
                model.insert(lpn, false);
            } else if ftl.write(lpn).is_ok() {
                model.insert(lpn, true);
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (lpn, mapped) in &model {
            match ftl.lookup(*lpn) {
                Some(ppn) => {
                    prop_assert!(*mapped, "trimmed LPN {lpn} still mapped");
                    prop_assert!(ppn < ftl.geometry().total_pages());
                    prop_assert!(seen.insert(ppn), "PPN {ppn} mapped twice");
                }
                None => prop_assert!(!*mapped, "written LPN {lpn} lost its mapping"),
            }
        }
        // Write amplification is at least 1 whenever any host write happened.
        if ftl.stats().host_writes > 0 {
            prop_assert!(ftl.stats().write_amplification() >= 1.0);
        }
    }

    /// The internal DRAM never holds more pages than its capacity and its
    /// hit/miss counts always add up.
    #[test]
    fn internal_dram_respects_capacity(
        capacity in 1usize..64,
        ops in proptest::collection::vec((0u64..256, any::<bool>()), 1..300),
    ) {
        let mut dram = InternalDram::new(capacity, Nanos::from_nanos(200));
        for (lpn, is_write) in &ops {
            if *is_write {
                dram.write(*lpn);
            } else {
                dram.read(*lpn);
            }
            prop_assert!(dram.resident_pages() <= capacity);
            prop_assert!(dram.dirty_pages() <= dram.resident_pages());
        }
        let s = dram.stats();
        prop_assert_eq!(s.hits + s.misses, ops.len() as u64);
    }

    /// Device-level: a flush makes every previously buffered write durable,
    /// and completion times never precede issue times.
    #[test]
    fn flush_durability_and_causality(lbas in proptest::collection::vec(0u64..64, 1..40)) {
        let mut ssd = SsdDevice::new(SsdConfig::tiny_for_tests());
        let mut now = Nanos::ZERO;
        for lba in &lbas {
            let cmd = NvmeCommand::write(1, *lba, 4096, PrpList::single(0));
            let done = ssd.service(&cmd, now).unwrap();
            prop_assert!(done.finished_at >= now);
            now = done.finished_at;
        }
        let flush = ssd.service(&NvmeCommand::flush(1), now).unwrap();
        prop_assert!(flush.finished_at >= now);
        for lba in &lbas {
            prop_assert!(ssd.is_durable(*lba), "LBA {lba} not durable after flush");
        }
    }
}

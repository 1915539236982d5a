//! Property-based tests for the platform layer: cache bounds, runner metric
//! sanity and cross-platform orderings that must hold for any seed.

use hams_platforms::{run_workload, CacheOutcome, LruPageCache, PlatformKind, ScaleProfile};
use hams_workloads::WorkloadSpec;
use proptest::prelude::*;

proptest! {
    /// The LRU page cache never exceeds its capacity, counts hits and misses
    /// exactly, and only evicts pages that were resident.
    #[test]
    fn lru_cache_invariants(
        capacity in 1usize..128,
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..400),
    ) {
        let mut cache = LruPageCache::new(capacity);
        let mut resident = std::collections::HashSet::new();
        for (page, is_write) in &ops {
            let outcome = cache.access(*page, *is_write);
            match outcome {
                CacheOutcome::Hit => prop_assert!(resident.contains(page)),
                CacheOutcome::MissInstalled => {
                    resident.insert(*page);
                }
                CacheOutcome::MissEvictClean { victim } | CacheOutcome::MissEvictDirty { victim } => {
                    prop_assert!(resident.remove(&victim), "evicted page {victim} was not resident");
                    resident.insert(*page);
                }
            }
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), resident.len());
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, ops.len() as u64);
    }
}

/// The naive reference LRU: resident pages in a `Vec`, most recent first.
#[derive(Default)]
struct ModelLru {
    pages: Vec<(u64, bool)>,
}

impl ModelLru {
    fn access(&mut self, capacity: usize, page: u64, is_write: bool) -> CacheOutcome {
        if let Some(i) = self.pages.iter().position(|&(p, _)| p == page) {
            let (_, dirty) = self.pages.remove(i);
            self.pages.insert(0, (page, dirty || is_write));
            return CacheOutcome::Hit;
        }
        if capacity == 0 {
            return CacheOutcome::MissInstalled;
        }
        let outcome = if self.pages.len() == capacity {
            match self.pages.pop() {
                Some((victim, true)) => CacheOutcome::MissEvictDirty { victim },
                Some((victim, false)) => CacheOutcome::MissEvictClean { victim },
                None => unreachable!("a full cache has a victim"),
            }
        } else {
            CacheOutcome::MissInstalled
        };
        self.pages.insert(0, (page, is_write));
        outcome
    }

    fn dirty_pages(&self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self.pages.iter().filter(|p| p.1).map(|p| p.0).collect();
        dirty.sort_unstable();
        dirty
    }
}

proptest! {
    /// The LRU page cache matches the naive `Vec`-ordered model on every
    /// operation: the same outcome, victim and dirty flag, the same dirty
    /// set and the same counters, at capacities 0 and 1 too.
    #[test]
    fn lru_cache_matches_the_reference_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec((0u8..10, 0u64..24), 1..400),
    ) {
        let mut cache = LruPageCache::new(capacity);
        let mut model = ModelLru::default();
        let (mut hits, mut dirty_evictions) = (0, 0);
        for (op, page) in ops {
            if op == 9 {
                cache.clean_all();
                for entry in &mut model.pages {
                    entry.1 = false;
                }
            } else {
                let is_write = op >= 5;
                let expected = model.access(capacity, page, is_write);
                prop_assert_eq!(cache.access(page, is_write), expected);
                hits += u64::from(expected.is_hit());
                dirty_evictions += u64::from(matches!(expected, CacheOutcome::MissEvictDirty { .. }));
            }
            prop_assert_eq!(cache.len(), model.pages.len());
            prop_assert_eq!(cache.contains(page), model.pages.iter().any(|p| p.0 == page));
            prop_assert_eq!(cache.dirty_pages(), model.dirty_pages());
        }
        prop_assert_eq!(cache.stats().hits, hits);
        prop_assert_eq!(cache.stats().dirty_evictions, dirty_evictions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed, the runner produces finite, positive metrics and the
    /// oracle upper-bounds HAMS, which upper-bounds (or equals) mmap.
    #[test]
    fn runner_metrics_are_sane_for_any_seed(seed in 0u64..1_000) {
        let scale = ScaleProfile {
            capacity_divisor: 4096,
            accesses: 1_000,
            seed,
        };
        let spec = WorkloadSpec::by_name("rndWr").unwrap();
        let mut mmap = PlatformKind::Mmap.build(&scale);
        let mut te = PlatformKind::HamsTE.build(&scale);
        let mut oracle = PlatformKind::Oracle.build(&scale);
        let m = run_workload(mmap.as_mut(), spec, &scale);
        let h = run_workload(te.as_mut(), spec, &scale);
        let o = run_workload(oracle.as_mut(), spec, &scale);
        for r in [&m, &h, &o] {
            prop_assert!(r.pages_per_sec.is_finite() && r.pages_per_sec > 0.0);
            prop_assert!(r.ipc.is_finite() && r.ipc > 0.0);
            prop_assert!(r.energy.total_joules().is_finite());
        }
        prop_assert!(o.pages_per_sec >= h.pages_per_sec * 0.99);
        prop_assert!(h.pages_per_sec >= m.pages_per_sec * 0.9,
            "HAMS ({:.0}) fell far below mmap ({:.0}) for seed {seed}", h.pages_per_sec, m.pages_per_sec);
    }
}

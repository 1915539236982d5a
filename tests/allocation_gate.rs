//! Allocation gate: serving does O(1) heap allocations per run.
//!
//! A counting global allocator tallies every allocation this test binary
//! makes, so the counts are exact and machine-independent. Each scenario is
//! served at `N` and at `2N` arrivals from fresh platforms; doubling the run
//! may add at most [`GROWTH_SLACK`] allocations. That slack covers the
//! logarithmic growth of buffers sized by the run (a rebuild plan twice as
//! long reallocates once more), never a per-access or per-command
//! allocation, which would add thousands.
//!
//! Three scenarios are gated:
//!
//! * `hams-TP-r5` serving Poisson `rndWr` arrivals through the fig26
//!   fail-stop → spare → rebuild schedule: the persist-mode parity-archive
//!   miss path, with degraded reads reconstructed from the survivors and
//!   rebuild rows programmed onto the spare.
//! * `hams-TE` serving `rndRd` closed loop: the extend-mode miss path.
//! * `mmap` serving `rndRd` closed loop: the paper's MMF baseline, whose OS
//!   page cache and SSD-internal DRAM are both full and evicting within the
//!   shorter run, so the longer run measures their steady state.
//!
//! This binary holds a single test so no other test's allocations land in
//! the shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hams::flash::SsdConfig;
use hams::platforms::{
    build_fault_platform, run_workload, run_workload_open_loop, MmapPlatform, OpenLoopConfig,
    Platform, PlatformRegistry, ScaleProfile,
};
use hams::workloads::WorkloadSpec;
use hams_bench::fig26_fault_schedule;

/// Forwards to the system allocator, counting `alloc`, `alloc_zeroed` and
/// `realloc` calls. Frees are not counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // the `new_size` requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Arrivals (or accesses) of the shorter run; the longer run serves twice
/// as many.
const N: usize = 4_000;

/// Allocations the `2N` run may make beyond the `N` run.
const GROWTH_SLACK: u64 = 8;

/// Offered Poisson rate of the rebuild scenario, in arrivals per simulated
/// second: the fig26 operating point of `hams-TP-r5` on `rndWr`, busy
/// enough that rebuild contends with foreground serving.
const OFFERED_RATE_PER_SEC: f64 = 14_000.0;

/// Capacity divisor of the `mmap` scenario: small enough that `N` `rndRd`
/// accesses overflow both its 1024-page OS page cache and its 64-page SSD
/// DRAM.
const MMAP_CAPACITY_DIVISOR: u64 = 2048;

fn scale(accesses: usize) -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 256,
        accesses,
        seed: 42,
    }
}

fn spec(name: &str) -> WorkloadSpec {
    WorkloadSpec::by_name(name).expect("a Table III workload")
}

/// Allocations made while `serve` runs.
fn allocations_of(serve: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    serve();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Serves `hams-TP-r5` through the fig26 fault schedule and returns the
/// allocations of the serving part (fault install, replay, rebuild settle).
fn parity_rebuild_run(arrivals: usize) -> u64 {
    let scale = scale(arrivals);
    let mut platform = build_fault_platform(&scale);
    let (plan, span) = fig26_fault_schedule(arrivals, OFFERED_RATE_PER_SEC);
    let config = OpenLoopConfig::poisson(OFFERED_RATE_PER_SEC).with_records(false);
    let count = allocations_of(|| {
        assert!(
            platform.configure_faults(&plan),
            "hams-TP-r5 takes a fault plan"
        );
        let metrics = run_workload_open_loop(&mut platform, spec("rndWr"), &scale, &config);
        platform.advance_faults(metrics.last_finish.max(span));
        assert_eq!(metrics.arrivals, arrivals as u64);
    });
    let stats = platform
        .controller()
        .archive()
        .fault_stats()
        .expect("the plan is installed");
    assert_eq!(stats.faults_injected, 1, "the device must fail");
    assert!(
        stats.degraded_reads > 0,
        "degraded reads must be reconstructed"
    );
    assert!(
        stats.rebuild_writes > 0,
        "the rebuild must program the spare"
    );
    assert_eq!(stats.repairs_completed, 1, "the rebuild must finish");
    count
}

/// Serves `hams-TE` closed loop on `rndRd` and returns the allocations of
/// the replay.
fn extend_run(accesses: usize) -> u64 {
    let scale = scale(accesses);
    let mut platform = PlatformRegistry::standard()
        .build("hams-TE", &scale)
        .expect("hams-TE is registered");
    allocations_of(|| {
        let metrics = run_workload(platform.as_mut(), spec("rndRd"), &scale);
        assert_eq!(metrics.accesses, accesses as u64);
    })
}

/// Serves `mmap` closed loop on `rndRd` and returns the allocations of the
/// replay, after checking that both LRU caches filled up and evicted.
fn mmap_run(accesses: usize) -> u64 {
    let scale = ScaleProfile {
        capacity_divisor: MMAP_CAPACITY_DIVISOR,
        ..scale(accesses)
    };
    // The registry's `mmap`, built concretely so its caches can be inspected.
    let mut ssd = SsdConfig::ull_flash();
    ssd.dram_capacity_bytes = scale.ssd_dram_bytes();
    let mut platform = MmapPlatform::new("mmap", ssd, scale.cache_bytes());
    let count = allocations_of(|| {
        let metrics = run_workload(&mut platform, spec("rndRd"), &scale);
        assert_eq!(metrics.accesses, accesses as u64);
    });
    let cache = platform.page_cache();
    assert_eq!(cache.len(), cache.capacity(), "the page cache must fill");
    assert!(
        cache.stats().misses > cache.capacity() as u64,
        "the page cache must evict"
    );
    let dram = platform.ssd().dram();
    assert_eq!(
        dram.resident_pages(),
        dram.capacity_pages(),
        "the SSD DRAM must fill"
    );
    assert!(
        dram.stats().misses > dram.capacity_pages() as u64,
        "the SSD DRAM must evict"
    );
    eprintln!(
        "mmap rndRd at {accesses}: page cache {} pages, {} misses; SSD DRAM {} pages, {} misses",
        cache.capacity(),
        cache.stats().misses,
        dram.capacity_pages(),
        dram.stats().misses
    );
    count
}

#[test]
fn serving_allocations_do_not_grow_with_run_length() {
    for (scenario, run) in [
        (
            "hams-TP-r5 rndWr through fail/spare/rebuild",
            parity_rebuild_run as fn(usize) -> u64,
        ),
        ("hams-TE rndRd closed loop", extend_run),
        ("mmap rndRd closed loop", mmap_run),
    ] {
        let short = run(N);
        let long = run(2 * N);
        eprintln!(
            "{scenario}: {short} allocations at {N}, {long} at {}",
            2 * N
        );
        assert!(
            long <= short + GROWTH_SLACK,
            "{scenario}: {long} allocations at {} arrivals against {short} at {N}; \
             serving must not allocate per access",
            2 * N
        );
    }
}

//! The benchmark's workloads: which platform serves which Table III trace,
//! closed or open loop, and how each is built, served and inspected.

use hams_bench::fig26_fault_schedule;
use hams_core::{AttachMode, PersistMode};
use hams_flash::{SsdConfig, SsdDevice, SsdStats};
use hams_platforms::{
    build_fault_platform, register_hams_fault_scenario, run_workload, run_workload_open_loop,
    run_workload_open_loop_traced, run_workload_traced, HamsPlatform, MmapPlatform, OpenLoopConfig,
    OpenLoopMetrics, Platform, PlatformRegistry, RunMetrics, ScaleProfile, DEFAULT_BATCH_SIZE,
};
use hams_sim::Nanos;
use hams_telemetry::RunTelemetry;
use hams_workloads::{ArrivalGenerator, TraceGenerator, WorkloadSpec};

/// Capacity divisor of every workload: a 32 MiB NVDIMM cache (8 GiB / 256).
pub const CAPACITY_DIVISOR: u64 = 256;

/// Offered Poisson rate of `tp-r5-rebuild`, in arrivals per simulated
/// second: 0.69x the 20.4k/s closed-loop service rate `hams-TP-r5` reaches
/// on `rndWr` at this scale (200k accesses, seed 42), the fig26 operating
/// point. Busy enough that rebuild traffic contends with foreground serving,
/// light enough that no arrival is dropped. A constant, so the offered load
/// does not depend on the code under test and no calibration replay runs.
pub const OFFERED_RATE_PER_SEC: f64 = 14_000.0;

/// How a workload offers its accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each access issues when the previous one completes.
    Closed,
    /// Poisson arrivals at [`OFFERED_RATE_PER_SEC`] through a dropping
    /// admission queue, with the fig26 fail-stop → spare → rebuild schedule.
    OpenRebuild,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Benchmark name.
    pub name: &'static str,
    /// Registry label of the platform.
    pub platform: &'static str,
    /// Table III workload replayed.
    pub spec: &'static str,
    /// Closed or open loop.
    pub offered: Loop,
    /// Accesses (arrivals) per timed replay.
    pub accesses: usize,
    /// Accesses of the traced replay: short enough that the span recorder
    /// holds every span in memory and the traced replay stays within a few
    /// seconds (open-loop tracing samples a metrics series per batch, whose
    /// cost grows with the square of the simulated span).
    pub traced_accesses: usize,
}

/// The three workloads. `tp-r5-rebuild` exercises the HAMS miss path (about
/// half its accesses miss) and is the only one that drives the open-loop
/// engine and the parity archive through a device failure; `te-seqSel`
/// bypasses the miss path (almost every access hits), so a miss-path change
/// should leave it unchanged while runner and tag-array changes show;
/// `mmap-rndRd` is the paper's software baseline, the only workload that
/// runs the MMF cost model and the LRU page cache. A hams-TE `rndRd`
/// workload was dropped: its host rate spread too widely from run to run on
/// a shared machine.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "te-seqSel",
        platform: "hams-TE",
        spec: "seqSel",
        offered: Loop::Closed,
        accesses: 2_000_000,
        traced_accesses: 200_000,
    },
    Workload {
        name: "tp-r5-rebuild",
        platform: "hams-TP-r5",
        spec: "rndWr",
        offered: Loop::OpenRebuild,
        accesses: 200_000,
        traced_accesses: 10_000,
    },
    Workload {
        name: "mmap-rndRd",
        platform: "mmap",
        spec: "rndRd",
        offered: Loop::Closed,
        accesses: 200_000,
        traced_accesses: 50_000,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The Table III spec (unscaled).
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::by_name(self.spec).expect("every benchmark spec is a Table III workload")
    }

    /// The scale of a replay of `accesses` accesses from `seed`.
    pub fn scale(&self, seed: u64, accesses: usize) -> ScaleProfile {
        ScaleProfile {
            capacity_divisor: CAPACITY_DIVISOR,
            accesses,
            seed,
        }
    }

    /// The open-loop configuration (records off: the sojourn histogram stays
    /// exact and the replay stays allocation-light).
    pub fn open_loop_config(&self) -> OpenLoopConfig {
        OpenLoopConfig::poisson(OFFERED_RATE_PER_SEC).with_records(false)
    }

    /// The fault plan of an open-loop replay of `accesses` arrivals and the
    /// simulated span it was derived from; `None` for closed-loop workloads.
    pub fn fault_schedule(&self, accesses: usize) -> Option<(hams_core::FaultPlan, Nanos)> {
        (self.offered == Loop::OpenRebuild)
            .then(|| fig26_fault_schedule(accesses, OFFERED_RATE_PER_SEC))
    }

    /// Installs the workload's fault plan, if it has one. Returns `false` if
    /// the platform refused it.
    pub fn install_faults(&self, platform: &mut dyn Platform, accesses: usize) -> bool {
        match self.fault_schedule(accesses) {
            Some((plan, _)) => platform.configure_faults(&plan),
            None => true,
        }
    }

    /// Serves one replay through the public entry points, traced when
    /// `telemetry` is given.
    pub fn serve(
        &self,
        platform: &mut dyn Platform,
        scale: &ScaleProfile,
        telemetry: Option<&mut RunTelemetry>,
    ) -> Served {
        let spec = self.spec();
        match (self.offered, telemetry) {
            (Loop::Closed, None) => Served::Closed(run_workload(platform, spec, scale)),
            (Loop::Closed, Some(t)) => {
                Served::Closed(run_workload_traced(platform, spec, scale, t))
            }
            (Loop::OpenRebuild, None) => Served::Open(run_workload_open_loop(
                platform,
                spec,
                scale,
                &self.open_loop_config(),
            )),
            (Loop::OpenRebuild, Some(t)) => Served::Open(run_workload_open_loop_traced(
                platform,
                spec,
                scale,
                &self.open_loop_config(),
                t,
            )),
        }
    }

    /// An upper bound on the serving calls a replay of `accesses` makes:
    /// closed loop dispatches full batches, open loop as few as one access
    /// per call.
    pub fn serving_calls(&self, accesses: usize) -> usize {
        match self.offered {
            Loop::Closed => accesses.div_ceil(DEFAULT_BATCH_SIZE),
            Loop::OpenRebuild => accesses,
        }
    }

    /// Lets a rebuild that outlived the last arrival finish (the fig26
    /// harness does the same), so the fault checks see the whole timeline.
    pub fn settle(&self, platform: &mut dyn Platform, served: &Served, accesses: usize) {
        if let (Served::Open(m), Some((_, span))) = (served, self.fault_schedule(accesses)) {
            platform.advance_faults(m.last_finish.max(span));
        }
    }

    /// Iterates the workload's input streams alone — the trace, zipped with
    /// the arrival schedule in open loop — exactly as the runner would, and
    /// returns a checksum so the work cannot be optimised away.
    pub fn generate(&self, scale: &ScaleProfile) -> u64 {
        let scaled = scale.scale_spec(self.spec());
        let trace = TraceGenerator::new(scaled, scale.seed, scale.accesses);
        let mut sum = 0u64;
        match self.offered {
            Loop::Closed => {
                for a in trace {
                    sum = sum.wrapping_add(std::hint::black_box(a).addr);
                }
            }
            Loop::OpenRebuild => {
                let arrivals = ArrivalGenerator::new(
                    self.open_loop_config().arrivals,
                    scale.seed,
                    scale.accesses,
                );
                for (a, t) in trace.zip(arrivals) {
                    let (a, t) = std::hint::black_box((a, t));
                    sum = sum.wrapping_add(a.addr ^ t.as_nanos());
                }
            }
        }
        sum
    }

    /// Arrival instants of an open-loop replay, in arrival order.
    pub fn arrivals(&self, scale: &ScaleProfile) -> Vec<Nanos> {
        ArrivalGenerator::new(self.open_loop_config().arrivals, scale.seed, scale.accesses)
            .collect()
    }
}

/// The registry the benchmark builds its timed platforms from: the eleven
/// paper systems plus the `hams-TP-r5` fault scenario.
pub fn registry() -> PlatformRegistry {
    let mut registry = PlatformRegistry::standard();
    register_hams_fault_scenario(&mut registry);
    registry
}

/// The metrics of one replay.
#[derive(Debug, Clone)]
pub enum Served {
    /// A closed-loop replay.
    Closed(RunMetrics),
    /// An open-loop replay.
    Open(OpenLoopMetrics),
}

impl Served {
    /// The closed-loop-compatible run metrics.
    pub fn run(&self) -> &RunMetrics {
        match self {
            Served::Closed(m) => m,
            Served::Open(m) => &m.run,
        }
    }

    /// Every metric, rendered with all digits: two replays are identical
    /// exactly when their fingerprints are.
    pub fn fingerprint(&self) -> String {
        match self {
            Served::Closed(m) => format!("{m:?}"),
            Served::Open(m) => format!("{m:?}"),
        }
    }

    /// Operations attempted: accesses in closed loop, arrivals in open loop.
    pub fn attempted(&self) -> u64 {
        match self {
            Served::Closed(m) => m.accesses,
            Served::Open(m) => m.arrivals,
        }
    }

    /// Operations that failed: drops in open loop, none in closed loop.
    pub fn failed(&self) -> u64 {
        match self {
            Served::Closed(_) => 0,
            Served::Open(m) => m.dropped,
        }
    }
}

/// The shape a result was measured on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    pub devices: u16,
    pub shards: u16,
    pub queue_pairs: u16,
    pub mos_page_bytes: u64,
}

/// Counters read from a platform's public stats accessors after a replay.
/// Layers a platform does not have read zero.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    pub shape: Shape,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub clean_replacements: u64,
    pub wait_stalls: u64,
    pub fill_bytes: u64,
    pub eviction_bytes: u64,
    pub delay_nvdimm: Nanos,
    pub delay_dma: Nanos,
    pub delay_ssd: Nanos,
    pub delay_hams: Nanos,
    pub reads_issued: u64,
    pub writes_issued: u64,
    pub msi_interrupts: u64,
    pub msi_mean_burst: f64,
    pub msi_max_burst: u64,
    pub archive: SsdStats,
    pub device_stats: Vec<SsdStats>,
    pub ftl_host_writes: u64,
    pub ftl_flash_writes: u64,
    pub gc_runs: u64,
    pub dram_hits: u64,
    pub dram_misses: u64,
    pub dram_dirty_evictions: u64,
    pub faults_injected: u64,
    pub repairs_completed: u64,
    pub degraded_reads: u64,
    pub reconstruction_reads: u64,
    pub parity_absorbed_writes: u64,
    pub rebuild_reads: u64,
    pub rebuild_writes: u64,
    pub rebuild_rows_done: u64,
    pub rebuild_rows_total: u64,
    pub page_cache_hit_rate: f64,
}

impl LayerStats {
    fn add_devices<'a>(&mut self, devices: impl Iterator<Item = &'a SsdDevice>) {
        for d in devices {
            self.device_stats.push(*d.stats());
            let ftl = d.ftl_stats();
            self.ftl_host_writes += ftl.host_writes;
            self.ftl_flash_writes += ftl.flash_writes;
            self.gc_runs += ftl.gc_runs;
            let dram = d.dram_stats();
            self.dram_hits += dram.hits;
            self.dram_misses += dram.misses;
            self.dram_dirty_evictions += dram.dirty_evictions;
        }
    }
}

/// A platform the benchmark builds concretely, so that after a replay it
/// can read the layers' stats accessors.
pub trait Inspect: Platform + Sized {
    /// Builds the platform exactly as the registry entry `label` does.
    fn build(label: &str, scale: &ScaleProfile) -> Self;
    /// Reads every layer counter.
    fn layer_stats(&self) -> LayerStats;
    /// Spans the platform's own trace sink had to drop.
    fn spans_dropped(&self) -> u64;
}

impl Inspect for HamsPlatform {
    fn build(label: &str, scale: &ScaleProfile) -> Self {
        match label {
            "hams-TE" => {
                HamsPlatform::scaled(AttachMode::Tight, PersistMode::Extend, scale.cache_bytes())
            }
            "hams-TP-r5" => build_fault_platform(scale),
            other => panic!("no concrete HAMS build for {other}"),
        }
    }

    fn layer_stats(&self) -> LayerStats {
        let c = self.controller();
        let s = c.stats();
        let engine = c.engine();
        let msi = engine.coalescer_stats();
        let archive = c.archive();
        let mut out = LayerStats {
            shape: Shape {
                devices: c.num_devices(),
                shards: c.num_shards(),
                queue_pairs: engine.num_queues(),
                mos_page_bytes: c.config().mos_page_size,
            },
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            clean_replacements: s.clean_replacements,
            wait_stalls: s.wait_stalls,
            fill_bytes: s.fill_bytes,
            eviction_bytes: s.eviction_bytes,
            delay_nvdimm: s.delay.component("nvdimm"),
            delay_dma: s.delay.component("dma"),
            delay_ssd: s.delay.component("ssd"),
            delay_hams: s.delay.component("hams"),
            reads_issued: engine.stats().reads_issued,
            writes_issued: engine.stats().writes_issued,
            msi_interrupts: msi.interrupts,
            msi_mean_burst: msi.mean_burst(),
            msi_max_burst: msi.max_burst,
            archive: archive.stats(),
            ..LayerStats::default()
        };
        out.add_devices(archive.devices().iter());
        if let Some(f) = c.fault_stats() {
            out.faults_injected = f.faults_injected;
            out.repairs_completed = f.repairs_completed;
            out.degraded_reads = f.degraded_reads;
            out.reconstruction_reads = f.reconstruction_reads;
            out.parity_absorbed_writes = f.parity_absorbed_writes;
            out.rebuild_reads = f.rebuild_reads;
            out.rebuild_writes = f.rebuild_writes;
            out.rebuild_rows_done = f.rebuild_rows_done;
            out.rebuild_rows_total = f.rebuild_rows_total;
        }
        out
    }

    fn spans_dropped(&self) -> u64 {
        self.controller()
            .trace_recorder()
            .map_or(0, |r| r.dropped())
    }
}

impl Inspect for MmapPlatform {
    fn build(label: &str, scale: &ScaleProfile) -> Self {
        assert_eq!(label, "mmap", "no concrete mmap build for {label}");
        let mut ssd = SsdConfig::ull_flash();
        ssd.dram_capacity_bytes = scale.ssd_dram_bytes();
        MmapPlatform::new("mmap", ssd, scale.cache_bytes())
    }

    fn layer_stats(&self) -> LayerStats {
        let mut out = LayerStats {
            shape: Shape {
                devices: 1,
                shards: 0,
                queue_pairs: 1,
                mos_page_bytes: 0,
            },
            archive: *self.ssd().stats(),
            page_cache_hit_rate: self.page_cache_hit_rate(),
            ..LayerStats::default()
        };
        out.add_devices(std::iter::once(self.ssd()));
        out
    }

    /// `mmap` has no internal trace sink.
    fn spans_dropped(&self) -> u64 {
        0
    }
}

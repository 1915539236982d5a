//! End-to-end and per-layer benchmark of the HAMS simulator's host cost.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run replays one workload through the public entry points
//! (`run_workload`, `run_workload_open_loop`) on platforms built from the
//! registry, tracing off, for `--seconds`: fresh-platform replays whose
//! serving calls a forwarding [`wrap::Timed`] wrapper marks, so each replay
//! splits into the same segments of work. The host rate is taken from the
//! sum of each segment's fastest time over all replays (the fastest whole
//! replay is printed beside it): on a shared machine other tenants' load
//! comes and goes in phases of seconds, and the per-segment floor filters
//! it at sub-millisecond grain. A last replay on a concrete build reads
//! exact per-access latencies and every layer's stats. With
//! `--trace 1` it also times each layer from outside (trace generation
//! alone, the platform's serving calls, the runner over a [`wrap::Replay`]
//! of the recorded outcomes) and runs a traced replay for simulated self
//! times. Every check that fails makes the exit code non-zero. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod spans;
mod workload;
mod wrap;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hams_platforms::{HamsPlatform, MmapPlatform, Platform, ScaleProfile};
use hams_sim::Nanos;
use hams_telemetry::{Layer, RunTelemetry, DEFAULT_BUCKET_WIDTH};

use crate::alloc::allocations;
use crate::workload::{registry, Inspect, LayerStats, Loop, Served, Workload, WORKLOADS};
use crate::wrap::{FinalState, Replay, Spent, Timed};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Environment knobs that change a platform's shape or the runners'
/// threading. A result must not depend on them, so the benchmark refuses to
/// run while any is set.
const SHAPE_KNOBS: [&str; 4] = [
    "HAMS_SHARDS",
    "HAMS_DEVICES",
    "HAMS_CELL_THREADS",
    "HAMS_THREADS",
];

/// Fewest timed replays (and layer-timing rounds) a run makes, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// Separately timed layers must add up to the measured total within this
/// share of it.
const ADDITIVITY_TOLERANCE: f64 = 0.10;

/// Traced (and untraced twin) replays timed per run; each part's fastest
/// counts.
const TRACED_REPS: usize = 5;

/// Span slots reserved per traced access. The recorder grows lazily, so an
/// ample bound costs nothing; a run that still overflows it fails its check.
const SPANS_PER_ACCESS_BOUND: usize = 64;

/// Largest spread of replay allocation counts across the replays of one run
/// that still counts as repeating: this many, or this share of the median.
const ALLOC_SPREAD_ABS: f64 = 8.0;
const ALLOC_SPREAD_REL: f64 = 0.001;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks, metrics and operation counts of one run.
#[derive(Default)]
struct Report {
    failed_checks: Vec<String>,
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn check(&mut self, name: &str, ok: bool, detail: impl AsRef<str>) {
        println!(
            "check {name}: {} {}",
            if ok { "ok" } else { "FAIL" },
            detail.as_ref()
        );
        if !ok {
            self.failed_checks.push(name.to_owned());
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} {value} {unit}");
        self.end_to_end.push((name, value, unit));
    }

    fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} {value} {unit}");
        self.per_layer.push((name, value, unit));
    }

    fn json(&self, trace: bool) -> String {
        let correct = self.failed_checks.is_empty();
        let failed = if correct { self.failed } else { self.attempted };
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.attempted.max(1)
        );
        let metrics: Vec<(&str, f64, &str)> = if trace {
            self.per_layer
                .iter()
                .map(|(n, v, u)| (n.as_str(), *v, *u))
                .collect()
        } else {
            self.end_to_end.clone()
        };
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values already failed their check; JSON has no
            // spelling for them.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = SHAPE_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they change the platform shape or \
             threading the results are pinned to",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let wl = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_provenance();
    let report = match wl.platform {
        "mmap" => run::<MmapPlatform>(wl, &args),
        _ => run::<HamsPlatform>(wl, &args),
    };
    if !report.failed_checks.is_empty() {
        println!("# failed checks: {}", report.failed_checks.join(", "));
    }
    println!("{}", report.json(args.trace));
    if report.failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_provenance() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# provenance: git={} nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" profile={profile}",
        git_rev()
    );
}

/// The checked-out commit, read from `.git` in the working directory
/// (`none` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "none".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed replay on a registry-built platform.
struct Rep {
    setup: Duration,
    setup_allocs: u64,
    replay: Duration,
    replay_allocs: u64,
    fingerprint: String,
}

/// Per-segment floor of the timed replays: the fastest time of each serving
/// call and of each runner stretch between calls, over all replays. Replays
/// repeat the same work segment for segment, so the floor's sum is a
/// replay's host time with the machine's other load filtered out at
/// sub-millisecond grain.
#[derive(Default)]
struct Floor(Vec<u64>);

impl Floor {
    /// Folds in a replay that ran from `start` to `end` with serving calls
    /// starting and ending at `marks`. Returns `false` if it split into a
    /// different number of segments than the replays before it.
    fn fold(&mut self, start: Instant, marks: &[Instant], end: Instant) -> bool {
        let mut at = start;
        let segments = marks.iter().chain([&end]).map(|&m| {
            let d = ns(m - at);
            at = m;
            d
        });
        if self.0.is_empty() {
            self.0 = segments.collect();
            return true;
        }
        if marks.len() + 1 != self.0.len() {
            return false;
        }
        for (f, d) in self.0.iter_mut().zip(segments) {
            *f = (*f).min(d);
        }
        true
    }
}

fn run<P: Inspect>(wl: &'static Workload, args: &Args) -> Report {
    let mut report = Report::default();
    let scale = wl.scale(args.seed, wl.accesses);
    let scaled = scale.scale_spec(wl.spec());
    let budget = Duration::from_secs(args.seconds);
    // With --trace 1 half the time goes to the layer-timing rounds.
    let rep_budget = if args.trace { budget / 2 } else { budget };

    // --- Timed replays: a fresh registry-built platform each, tracing off.
    let registry = registry();
    let build = |report: &mut Report| {
        let (a, t) = (allocations(), Instant::now());
        let mut platform = registry
            .build(wl.platform, &scale)
            .expect("every benchmark platform is registered");
        let honoured = wl.install_faults(platform.as_mut(), scale.accesses);
        let setup = t.elapsed();
        if !honoured {
            report.check("fault_plan_installed", false, wl.platform);
        }
        (platform, setup, allocations() - a)
    };
    // The first build in a process also fills lazy tables; it is reported
    // apart from the steady-state builds and not timed.
    let (warm, _, first_build_allocs) = build(&mut report);
    drop(warm);

    let mut reps: Vec<Rep> = Vec::new();
    let mut floor = Floor::default();
    let mut segments_match = true;
    let mut marks = Vec::new();
    let mut peak_rss = f64::NAN;
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed() < rep_budget {
        let (platform, setup, setup_allocs) = build(&mut report);
        let mut timed =
            Timed::new(platform, false).with_marks(marks, wl.serving_calls(scale.accesses));
        let (a, t) = (allocations(), Instant::now());
        let served = wl.serve(&mut timed, &scale, None);
        let end = Instant::now();
        let replay_allocs = allocations() - a;
        segments_match &= floor.fold(t, &timed.marks, end);
        wl.settle(&mut timed, &served, scale.accesses);
        if wl.offered == Loop::OpenRebuild {
            check_rebuild_gauges(&mut report, &timed, reps.len());
        }
        report.attempted += served.attempted();
        report.failed += served.failed();
        reps.push(Rep {
            setup,
            setup_allocs,
            replay: end - t,
            replay_allocs,
            fingerprint: served.fingerprint(),
        });
        marks = std::mem::take(&mut timed.marks);
        if reps.len() == 1 {
            // After one build and one replay. Each further build-and-drop
            // fragments the heap a little more, so a later reading would
            // grow with the number of replays that fit in the run.
            peak_rss = peak_rss_mib();
        }
    }
    report.check(
        "segments_repeat",
        segments_match,
        format!("{} segments per replay", floor.0.len()),
    );
    let floor_s = floor.0.iter().sum::<u64>() as f64 / 1e9;
    let first = &reps[0];
    report.check(
        "reps_identical",
        reps.iter().all(|r| r.fingerprint == first.fingerprint),
        format!("{} replays of {} accesses", reps.len(), wl.accesses),
    );
    report.check(
        "setup_allocations_repeat",
        reps.iter().all(|r| r.setup_allocs == first.setup_allocs),
        format!(
            "{} per build ({first_build_allocs} for the first build in the process)",
            first.setup_allocs
        ),
    );
    // Replay allocation counts are exact up to the program's std `HashMap`s,
    // whose per-instance random hash seeds decide whether a removal leaves a
    // tombstone and so when the table regrows: a few allocations per replay.
    let allocs: Vec<f64> = reps.iter().map(|r| r.replay_allocs as f64).collect();
    let (lo, hi) = min_max(&allocs);
    let allocs_median = median(allocs);
    report.check(
        "replay_allocations_repeat",
        hi - lo <= ALLOC_SPREAD_ABS.max(allocs_median * ALLOC_SPREAD_REL),
        format!("median {allocs_median}, range {lo}..={hi} per replay"),
    );
    let times: Vec<f64> = reps.iter().map(|r| r.replay.as_secs_f64()).collect();
    let (fastest, slowest) = min_max(&times);
    let setups: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();

    // --- Reference replay through the timing wrapper on a concrete build:
    // exact latencies, every layer's stats, and the outcomes later replays
    // feed back to the runner.
    let reference = reference_run::<P>(&mut report, wl, &scale);
    report.check(
        "wrapped_equals_reps",
        reference.served.fingerprint() == first.fingerprint,
        "timing wrapper over a concrete build",
    );
    check_run(&mut report, wl, &scale, &reference);

    let run = reference.served.run();
    let accesses = run.accesses as f64;
    let latency = latencies(&mut report, wl, &scale, &reference);
    println!(
        "# shape: platform={} devices={} shards={} queue_pairs={} mos_page_bytes={} \
         cache_bytes={} dataset_bytes={} access_bytes={} accesses={} offered={}",
        wl.platform,
        reference.stats.shape.devices,
        reference.stats.shape.shards,
        reference.stats.shape.queue_pairs,
        reference.stats.shape.mos_page_bytes,
        scale.cache_bytes(),
        scaled.dataset_bytes,
        scaled.access_bytes,
        wl.accesses,
        match wl.offered {
            Loop::Closed => "closed-loop".to_owned(),
            Loop::OpenRebuild => format!("poisson@{}/s", workload::OFFERED_RATE_PER_SEC),
        }
    );
    println!(
        "# timed: {} replays, fastest {fastest:.4} s, median {:.4} s, slowest {slowest:.4} s",
        reps.len(),
        median(times),
    );
    println!(
        "# simulated latency over {} samples: p50 {} us, p99 {} us ({} samples beyond p99), \
         mean {} us",
        latency.samples,
        latency.p50_us,
        latency.p99_us,
        latency.samples / 100,
        latency.mean_us
    );
    let sim_pages_per_s = match &reference.served {
        Served::Closed(m) => m.pages_per_sec,
        Served::Open(m) => m.achieved_per_sec() * scaled.access_bytes as f64 / 4096.0,
    };
    let ok_frac = if report.failed_checks.is_empty() {
        1.0 - reference.served.failed() as f64 / reference.served.attempted().max(1) as f64
    } else {
        0.0
    };
    println!(
        "# host rate: fastest replay {:.0}/s, per-segment floor {:.0}/s",
        wl.accesses as f64 / fastest,
        wl.accesses as f64 / floor_s
    );
    report.e2e("host_accesses_per_s", wl.accesses as f64 / floor_s, "1/s");
    report.e2e("setup_s", median(setups), "s");
    report.e2e("peak_rss_mib", peak_rss, "MiB");
    report.e2e(
        "host_allocs_per_access",
        allocs_median / wl.accesses as f64,
        "1/access",
    );
    report.e2e("sim_pages_per_s", sim_pages_per_s, "1/s");
    report.e2e("sim_latency_mean_us", latency.mean_us, "us");
    report.e2e(
        "sim_energy_uj_per_access",
        run.energy.total_joules() * 1e6 / accesses,
        "uJ/access",
    );
    report.e2e("ops_ok_frac", ok_frac, "ratio");

    if args.trace {
        report.layer("request.sim_latency_p50_us", latency.p50_us, "us");
        report.layer("request.sim_latency_p99_us", latency.p99_us, "us");
        report.layer("request.latency_samples", latency.samples as f64, "count");
        layers::<P>(&mut report, wl, args, &reference, budget - rep_budget);
        layer_stats(&mut report, &reference);
    }
    let finite = report.end_to_end.iter().all(|m| m.1.is_finite())
        && report.per_layer.iter().all(|m| m.1.is_finite());
    report.check("metrics_finite", finite, "");
    report
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// The rebuild must have run to completion on every timed replay; the
/// registry-built platform is a trait object, so read it through the
/// telemetry gauges.
fn check_rebuild_gauges(report: &mut Report, platform: &dyn Platform, rep: usize) {
    let mut gauges = Vec::new();
    platform.telemetry_gauges(&mut gauges);
    let gauge = |name: &str| gauges.iter().find(|g| g.0 == name).map(|g| g.1);
    let done = gauge("rebuild_rows_done");
    let healthy = gauge("array_state") == Some(0.0);
    let complete = done.is_some() && done == gauge("rebuild_rows_total") && healthy;
    // Print the first replay's check and any failure, not one line per rep.
    if !complete || rep == 0 {
        report.check(
            "rep_rebuild_complete",
            complete,
            format!(
                "rep {rep}: rows {done:?} of {:?}",
                gauge("rebuild_rows_total")
            ),
        );
    }
}

/// An untraced replay through [`Timed`] on a concrete build, with its
/// outcomes recorded.
struct Reference {
    served: Served,
    outcomes: Vec<hams_platforms::AccessOutcome>,
    issued: Vec<Nanos>,
    state: FinalState,
    stats: LayerStats,
}

fn reference_run<P: Inspect>(
    report: &mut Report,
    wl: &Workload,
    scale: &ScaleProfile,
) -> Reference {
    let mut timed = Timed::new(Box::new(P::build(wl.platform, scale)), true);
    if !wl.install_faults(&mut timed, scale.accesses) {
        report.check("fault_plan_installed", false, wl.platform);
    }
    let served = wl.serve(&mut timed, scale, None);
    let state = FinalState::capture(&timed, served.run().total_time);
    wl.settle(&mut timed, &served, scale.accesses);
    Reference {
        stats: timed.inner.layer_stats(),
        served,
        outcomes: timed.outcomes,
        issued: timed.issued,
        state,
    }
}

/// The correctness checks on the reference replay's metrics and stats.
fn check_run(report: &mut Report, wl: &Workload, scale: &ScaleProfile, r: &Reference) {
    let run = r.served.run();
    let s = &r.stats;
    match &r.served {
        Served::Closed(m) => {
            report.check(
                "accesses_served",
                m.accesses == scale.accesses as u64,
                format!("{} of {}", m.accesses, scale.accesses),
            );
        }
        Served::Open(m) => {
            report.check(
                "arrivals_conserved",
                m.arrivals == m.served + m.dropped && m.arrivals == scale.accesses as u64,
                format!(
                    "arrivals {} = served {} + dropped {}",
                    m.arrivals, m.served, m.dropped
                ),
            );
        }
    }
    if s.shape.shards > 0 {
        report.check(
            "hits_plus_misses",
            s.hits + s.misses == run.accesses,
            format!("{} + {} vs {}", s.hits, s.misses, run.accesses),
        );
    }
    let mut sum = hams_flash::SsdStats::default();
    for d in &s.device_stats {
        sum.read_commands += d.read_commands;
        sum.write_commands += d.write_commands;
        sum.flush_commands += d.flush_commands;
        sum.bytes_read += d.bytes_read;
        sum.bytes_written += d.bytes_written;
        sum.page_programs += d.page_programs;
        sum.page_reads += d.page_reads;
    }
    report.check(
        "device_stats_sum",
        sum == s.archive,
        format!(
            "{} devices: {} commands, {} B read, {} B written",
            s.device_stats.len(),
            sum.total_commands(),
            sum.bytes_read,
            sum.bytes_written
        ),
    );
    if wl.offered == Loop::OpenRebuild {
        report.check(
            "one_fault_one_repair",
            s.faults_injected == 1 && s.repairs_completed == 1,
            format!(
                "injected {} repaired {}",
                s.faults_injected, s.repairs_completed
            ),
        );
        report.check(
            "rebuild_complete",
            s.rebuild_rows_total > 0 && s.rebuild_rows_done == s.rebuild_rows_total,
            format!("rows {} of {}", s.rebuild_rows_done, s.rebuild_rows_total),
        );
    }
}

/// Simulated per-access latency, exact from the recorded outcomes: issue →
/// finish in closed loop, arrival → finish (sojourn) in open loop.
struct Latency {
    samples: usize,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

/// The reference replay's [`Latency`]; the open-loop percentiles are checked
/// against the engine's own sojourn histogram.
fn latencies(report: &mut Report, wl: &Workload, scale: &ScaleProfile, r: &Reference) -> Latency {
    let mut ns: Vec<u64> = match &r.served {
        Served::Closed(_) => r
            .outcomes
            .iter()
            .zip(&r.issued)
            .map(|(o, &at)| (o.finished_at - at).as_nanos())
            .collect(),
        Served::Open(m) => {
            let arrivals = wl.arrivals(scale);
            // Served requests pair with arrivals in order only when none was
            // dropped.
            let aligned = m.dropped == 0 && arrivals.len() == r.outcomes.len();
            report.check(
                "sojourn_alignment",
                aligned,
                format!("{} arrivals, {} served", arrivals.len(), r.outcomes.len()),
            );
            r.outcomes
                .iter()
                .zip(&arrivals)
                .map(|(o, &at)| o.finished_at.saturating_sub(at).as_nanos())
                .collect()
        }
    };
    ns.sort_unstable();
    let mean = ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64;
    let p50 = spans::nearest_rank(&ns, 50.0).unwrap_or(0);
    let p99 = spans::nearest_rank(&ns, 99.0).unwrap_or(0);
    if let Served::Open(m) = &r.served {
        let [h50, h99, _] = m.sojourn_p50_p99_p999();
        // The histogram reports a sample's bucket by its upper edge.
        let width = wl.open_loop_config().sojourn_bucket.as_nanos();
        let bucketed = |exact: u64| Nanos::from_nanos((exact / width + 1) * width);
        report.check(
            "sojourn_matches_histogram",
            h50 == Some(bucketed(p50)) && h99 == Some(bucketed(p99)),
            format!("exact p50 {p50} ns p99 {p99} ns, histogram {h50:?} {h99:?}"),
        );
    }
    Latency {
        samples: ns.len(),
        mean_us: mean / 1e3,
        p50_us: p50 as f64 / 1e3,
        p99_us: p99 as f64 / 1e3,
    }
}

/// Host time of one layer-timing round.
struct Round {
    generate: u64,
    generate_allocs: u64,
    total: u64,
    serve: Spent,
    driver: Spent,
}

fn timed_generate(wl: &Workload, scale: &ScaleProfile) -> (u64, u64) {
    let (a, t) = (allocations(), Instant::now());
    std::hint::black_box(wl.generate(scale));
    (ns(t.elapsed()), allocations() - a)
}

/// Times the runner alone: a replay of `r`'s recorded outcomes (and, traced,
/// the spans and gauges `recorded` captured), with the replay platform's own calls
/// subtracted. Returns the runner's host time and allocations, and whether
/// the replay reproduced `r`'s metrics.
fn timed_driver<P: Inspect>(
    wl: &Workload,
    scale: &ScaleProfile,
    r: &Reference,
    recorded: Option<&Timed<P>>,
    telemetry: Option<&mut RunTelemetry>,
) -> (Spent, bool) {
    let gauges = recorded.map(|t| t.gauges.borrow());
    let replay = Replay::new(
        &r.outcomes,
        recorded.map_or(&[], |t| &t.spans),
        gauges.as_deref().map_or(&[], |g| g.as_slice()),
        &r.state,
    );
    let mut replay = Timed::new(Box::new(replay), false);
    let (a, t) = (allocations(), Instant::now());
    let served = wl.serve(&mut replay, scale, telemetry);
    let total = ns(t.elapsed());
    let allocs = allocations() - a;
    let own = replay.serve.ns + replay.telemetry().ns;
    let own_allocs = replay.serve.allocs + replay.telemetry().allocs;
    let ok = replay.inner.exhausted() && served.fingerprint() == r.served.fingerprint();
    (
        Spent {
            ns: total.saturating_sub(own),
            allocs: allocs.saturating_sub(own_allocs),
        },
        ok,
    )
}

fn layers<P: Inspect>(
    report: &mut Report,
    wl: &Workload,
    args: &Args,
    reference: &Reference,
    budget: Duration,
) {
    let scale = wl.scale(args.seed, wl.accesses);
    let fingerprint = reference.served.fingerprint();

    // --- Layer-timing rounds at full length, tracing off.
    let mut rounds: Vec<Round> = Vec::new();
    let mut all_ok = true;
    let started = Instant::now();
    while rounds.len() < MIN_REPS || started.elapsed() < budget {
        let (generate, generate_allocs) = timed_generate(wl, &scale);
        let mut timed = Timed::new(Box::new(P::build(wl.platform, &scale)), false);
        wl.install_faults(&mut timed, scale.accesses);
        let t = Instant::now();
        let served = wl.serve(&mut timed, &scale, None);
        let total = ns(t.elapsed());
        all_ok &= served.fingerprint() == fingerprint;
        let (driver, ok) = timed_driver::<P>(wl, &scale, reference, None, None);
        all_ok &= ok;
        rounds.push(Round {
            generate,
            generate_allocs,
            total,
            serve: timed.serve,
            driver,
        });
    }
    report.check(
        "layer_rounds_identical",
        all_ok,
        format!(
            "{} wrapped and replayed rounds reproduce the reps' metrics",
            rounds.len()
        ),
    );
    // Each part's fastest round against the fastest whole round: the quiet
    // cost of every layer, taken apart from the machine's other load.
    let fastest = |part: fn(&Round) -> u64| rounds.iter().map(part).min().unwrap_or(0);
    let generate = fastest(|r| r.generate);
    let total = fastest(|r| r.total);
    let serve = fastest(|r| r.serve.ns);
    let driver = fastest(|r| r.driver.ns);
    let sum = driver + serve;
    let ratio = sum as f64 / total as f64;
    report.check(
        "layers_add_up",
        (ratio - 1.0).abs() <= ADDITIVITY_TOLERANCE,
        format!(
            "runner {driver} + serve {serve} = {ratio:.3} x wrapped total {total} ns \
             (tolerance {ADDITIVITY_TOLERANCE})"
        ),
    );
    let runner = driver.saturating_sub(generate);
    let per = |x: u64| x as f64 / wl.accesses as f64;
    let share = |x: u64| 100.0 * x as f64 / sum as f64;
    println!(
        "# host split over {} rounds: workloads {:.1}% platforms.serve {:.1}% \
         platforms.driver {:.1}% of {:.1} ns/access",
        rounds.len(),
        share(generate),
        share(serve),
        share(runner),
        per(sum)
    );
    // Allocation counts are the same in every round.
    let first = &rounds[0];
    report.layer("workloads.host_ns_per_access", per(generate), "ns/access");
    report.layer(
        "platforms.serve.host_ns_per_access",
        per(serve),
        "ns/access",
    );
    report.layer(
        "platforms.serve.allocs_per_access",
        per(first.serve.allocs),
        "1/access",
    );
    report.layer(
        "platforms.driver.host_ns_per_access",
        per(runner),
        "ns/access",
    );
    report.layer(
        "platforms.driver.allocs_per_access",
        per(first.driver.allocs.saturating_sub(first.generate_allocs)),
        "1/access",
    );

    traced::<P>(report, wl, args);
}

/// The traced replay, shortened to `traced_accesses` so the recorder keeps
/// every span, beside its untraced twin at the same length.
fn traced<P: Inspect>(report: &mut Report, wl: &Workload, args: &Args) {
    let m = wl.traced_accesses;
    let scale = wl.scale(args.seed, m);
    println!(
        "# traced replay shortened to {m} of {} accesses so that no span is dropped",
        wl.accesses
    );
    let twin = reference_run::<P>(report, wl, &scale);
    let fingerprint = twin.served.fingerprint();
    let telemetry =
        || RunTelemetry::with_capacity(m * SPANS_PER_ACCESS_BOUND, DEFAULT_BUCKET_WIDTH);

    // A first traced replay records the platform's spans (for the traced
    // runner replays below) and keeps the trace for simulated attribution.
    let mut recording = Timed::new(Box::new(P::build(wl.platform, &scale)), true);
    wl.install_faults(&mut recording, m);
    let mut trace = telemetry();
    let served = wl.serve(&mut recording, &scale, Some(&mut trace));
    let mut all_ok = served.fingerprint() == fingerprint;
    let inner_dropped = recording.inner.spans_dropped();
    report.check(
        "no_span_dropped",
        trace.recorder.dropped() == 0 && inner_dropped == 0,
        format!(
            "{} spans recorded, {} dropped by the run, {inner_dropped} by the platform",
            trace.recorder.recorded(),
            trace.recorder.dropped()
        ),
    );

    // Fastest of several reps for each part, as in the untraced rounds.
    let (mut untraced, mut traced) = (u64::MAX, u64::MAX);
    let (mut driver, mut serve, mut calls) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..TRACED_REPS {
        let mut timed = Timed::new(Box::new(P::build(wl.platform, &scale)), false);
        wl.install_faults(&mut timed, m);
        let t = Instant::now();
        let served = wl.serve(&mut timed, &scale, None);
        untraced = untraced.min(ns(t.elapsed()));
        all_ok &= served.fingerprint() == fingerprint;

        let mut timed = Timed::new(Box::new(P::build(wl.platform, &scale)), false);
        wl.install_faults(&mut timed, m);
        let mut run_trace = telemetry();
        let t = Instant::now();
        let served = wl.serve(&mut timed, &scale, Some(&mut run_trace));
        traced = traced.min(ns(t.elapsed()));
        all_ok &= served.fingerprint() == fingerprint;
        serve = serve.min(timed.serve.ns);
        calls = calls.min(timed.telemetry().ns);
        drop(run_trace);
        let (replayed, ok) =
            timed_driver(wl, &scale, &twin, Some(&recording), Some(&mut telemetry()));
        driver = driver.min(replayed.ns);
        all_ok &= ok;
    }
    report.check(
        "traced_equals_untraced",
        all_ok,
        format!("traced, untraced and replayed runs of {m} accesses"),
    );
    // Recorded, not checked: tracing makes the runner's share large (span
    // and gauge recording), and replayed apart from the platform the runner
    // meets less contention for caches and memory bandwidth than when the
    // two interleave, so on a loaded machine the parts can cover as little
    // as three quarters of the traced total.
    let coverage = (driver + serve + calls) as f64 / traced as f64;
    println!(
        "# traced parts: runner {driver} + serve {serve} + telemetry calls {calls} = \
         {coverage:.3} x traced total {traced} ns"
    );
    report.layer("telemetry.traced_parts_coverage", coverage, "ratio");
    let share = |x: u64| 100.0 * x as f64 / traced as f64;
    println!(
        "# traced host split: platforms.driver with span recording {:.1}% platforms.serve \
         with in-platform spans {:.1}% telemetry calls {:.1}%; traced/untraced {:.2}x",
        share(driver),
        share(serve),
        share(calls),
        traced as f64 / untraced as f64
    );
    report.layer(
        "telemetry.host_overhead_ns_per_access",
        traced.saturating_sub(untraced) as f64 / m as f64,
        "ns/access",
    );

    let spans: Vec<hams_telemetry::Span> = trace.recorder.spans().copied().collect();
    let sim = spans::self_times(&spans);
    for layer in [
        Layer::Controller,
        Layer::TagArray,
        Layer::Nvme,
        Layer::Msi,
        Layer::Archive,
        Layer::Admission,
    ] {
        let s = sim[layer.index()];
        report.layer(
            format!("{}.sim_self_us_per_access", layer.name()),
            s.self_time.as_micros_f64() / m as f64,
            "us/access",
        );
        report.layer(format!("{}.spans", layer.name()), s.spans as f64, "count");
    }
    let mut waits: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Admission && s.name == "queue_wait")
        .map(|s| s.duration().as_nanos())
        .collect();
    waits.sort_unstable();
    report.layer(
        "platforms.openloop.queue_wait_p99_us",
        spans::nearest_rank(&waits, 99.0).unwrap_or(0) as f64 / 1e3,
        "us",
    );
}

/// Every layer counter of the reference replay, per access where a rate is
/// meaningful.
fn layer_stats(report: &mut Report, r: &Reference) {
    let s = &r.stats;
    let run = r.served.run();
    let n = run.accesses.max(1) as f64;
    let dropped = match &r.served {
        Served::Open(m) => m.dropped,
        Served::Closed(_) => 0,
    };
    report.layer("platforms.openloop.dropped", dropped as f64, "count");
    let hit_rate = if s.hits + s.misses == 0 {
        0.0
    } else {
        s.hits as f64 / (s.hits + s.misses) as f64
    };
    report.layer("core.controller.hit_rate", hit_rate, "ratio");
    for (name, v, unit) in [
        ("misses", s.misses, "count"),
        ("evictions", s.evictions, "count"),
        ("clean_replacements", s.clean_replacements, "count"),
        ("wait_stalls", s.wait_stalls, "count"),
        ("fill_bytes", s.fill_bytes, "B"),
        ("eviction_bytes", s.eviction_bytes, "B"),
    ] {
        report.layer(format!("core.controller.{name}"), v as f64, unit);
    }
    for (name, t) in [
        ("nvdimm", s.delay_nvdimm),
        ("dma", s.delay_dma),
        ("ssd", s.delay_ssd),
        ("hams", s.delay_hams),
    ] {
        report.layer(
            format!("core.delay.{name}_us_per_access"),
            t.as_micros_f64() / n,
            "us/access",
        );
    }
    report.layer("core.engine.reads_issued", s.reads_issued as f64, "count");
    report.layer("core.engine.writes_issued", s.writes_issued as f64, "count");
    report.layer("nvme.msi.interrupts", s.msi_interrupts as f64, "count");
    report.layer("nvme.msi.mean_burst", s.msi_mean_burst, "count");
    report.layer("nvme.msi.max_burst", s.msi_max_burst as f64, "count");
    report.layer(
        "flash.archive.commands",
        s.archive.total_commands() as f64,
        "count",
    );
    report.layer("flash.archive.bytes_read", s.archive.bytes_read as f64, "B");
    report.layer(
        "flash.archive.bytes_written",
        s.archive.bytes_written as f64,
        "B",
    );
    let per_device: Vec<f64> = s
        .device_stats
        .iter()
        .map(|d| d.total_commands() as f64)
        .collect();
    let mean = per_device.iter().sum::<f64>() / per_device.len().max(1) as f64;
    let max = per_device.iter().copied().fold(0.0, f64::max);
    report.layer(
        "flash.archive.device_cmd_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
        "ratio",
    );
    report.layer(
        "flash.ftl.write_amplification",
        if s.ftl_host_writes == 0 {
            1.0
        } else {
            s.ftl_flash_writes as f64 / s.ftl_host_writes as f64
        },
        "ratio",
    );
    report.layer("flash.ftl.gc_runs", s.gc_runs as f64, "count");
    let dram = s.dram_hits + s.dram_misses;
    report.layer(
        "flash.dram.hit_rate",
        if dram == 0 {
            0.0
        } else {
            s.dram_hits as f64 / dram as f64
        },
        "ratio",
    );
    report.layer(
        "flash.dram.dirty_evictions",
        s.dram_dirty_evictions as f64,
        "count",
    );
    for (name, v) in [
        ("degraded_reads", s.degraded_reads),
        ("reconstruction_reads", s.reconstruction_reads),
        ("parity_absorbed_writes", s.parity_absorbed_writes),
        ("rebuild_reads", s.rebuild_reads),
        ("rebuild_writes", s.rebuild_writes),
        ("rebuild_rows_done", s.rebuild_rows_done),
    ] {
        report.layer(format!("flash.fault.{name}"), v as f64, "count");
    }
    report.layer(
        "platforms.mmap.page_cache_hit_rate",
        s.page_cache_hit_rate,
        "ratio",
    );
    report.layer("host.os_share", run.exec_breakdown.fraction("os"), "ratio");
    for name in ["cpu", "nvdimm", "internal_dram", "znand"] {
        report.layer(
            format!("energy.{name}_uj_per_access"),
            run.energy.component_joules(name) * 1e6 / n,
            "uJ/access",
        );
    }
}

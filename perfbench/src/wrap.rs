//! Two `Platform` implementations that measure layers from outside the
//! program:
//!
//! * [`Timed`] forwards every trait method to the platform it wraps and
//!   times the serving calls (`serve_batch_into`, `serve_batch`, `access`)
//!   and the telemetry calls, counting the allocations made inside them.
//! * [`Replay`] serves a recorded outcome sequence back to a runner, so a
//!   replay through it costs the runner (and trace generation) alone — the
//!   `platforms.driver` layer, measured rather than derived.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use hams_core::{BackendTopology, FaultPlan, ShardConfig};
use hams_energy::EnergyAccount;
use hams_nvme::QueueConfig;
use hams_platforms::{AccessOutcome, BatchOutcome, BatchRequest, Platform};
use hams_sim::{LatencyVector, Nanos};
use hams_telemetry::{Span, TelemetrySink};
use hams_workloads::Access;

use crate::alloc::allocations;

/// Host time and allocations spent inside one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spent {
    /// Host nanoseconds inside the calls.
    pub ns: u64,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
}

/// A forwarding wrapper that times the platform's serving and telemetry
/// calls. With `record` set it also keeps every outcome, in serving order,
/// for a later [`Replay`] and for exact per-access latencies; recording
/// happens outside the timed region. With marks reserved it keeps the
/// instant each serving call starts and ends, which splits a replay into
/// segments of identical work across replays.
pub struct Timed<P: ?Sized> {
    /// The wrapped platform.
    pub inner: Box<P>,
    /// Time inside `serve_batch_into`, `serve_batch` and `access`.
    pub serve: Spent,
    /// Time inside `configure_trace`, `take_trace_spans` and
    /// `telemetry_gauges` (the last takes `&self`, hence the cells).
    telemetry_ns: Cell<u64>,
    telemetry_allocs: Cell<u64>,
    record: bool,
    /// Recorded outcomes, in serving order.
    pub outcomes: Vec<AccessOutcome>,
    /// Recorded issue instants, index-aligned with `outcomes`.
    pub issued: Vec<Nanos>,
    /// Recorded spans the platform handed over in `take_trace_spans`.
    pub spans: Vec<Span>,
    /// Recorded `telemetry_gauges` output, one entry per call.
    pub gauges: RefCell<Vec<Vec<(&'static str, f64)>>>,
    /// Start and end instants of every serving call, while capacity lasts
    /// (reserved up front so marking never allocates mid-replay).
    pub marks: Vec<Instant>,
}

impl<P: Platform + ?Sized> Timed<P> {
    /// Wraps `inner`; `record` keeps outcomes, issue instants, spans and
    /// gauge samples.
    pub fn new(inner: Box<P>, record: bool) -> Self {
        Timed {
            inner,
            serve: Spent::default(),
            telemetry_ns: Cell::new(0),
            telemetry_allocs: Cell::new(0),
            record,
            outcomes: Vec::new(),
            issued: Vec::new(),
            spans: Vec::new(),
            gauges: RefCell::new(Vec::new()),
            marks: Vec::new(),
        }
    }

    /// Marks up to `calls` serving calls in `marks`, which is cleared and
    /// grown once so that marking never allocates mid-replay. Reusing one
    /// buffer across replays keeps it out of the process's peak RSS.
    pub fn with_marks(mut self, mut marks: Vec<Instant>, calls: usize) -> Self {
        marks.clear();
        marks.reserve(2 * calls);
        self.marks = marks;
        self
    }

    /// Accounts a serving call that started at `start`.
    fn served(&mut self, start: Instant, allocs_before: u64) {
        let end = Instant::now();
        self.serve.ns += (end - start).as_nanos() as u64;
        self.serve.allocs += allocations() - allocs_before;
        if self.marks.len() + 2 <= self.marks.capacity() {
            self.marks.push(start);
            self.marks.push(end);
        }
    }

    /// Time and allocations inside the telemetry calls.
    pub fn telemetry(&self) -> Spent {
        Spent {
            ns: self.telemetry_ns.get(),
            allocs: self.telemetry_allocs.get(),
        }
    }

    fn telemetry_add(&self, start: Instant, allocs_before: u64) {
        self.telemetry_ns
            .set(self.telemetry_ns.get() + start.elapsed().as_nanos() as u64);
        self.telemetry_allocs
            .set(self.telemetry_allocs.get() + allocations() - allocs_before);
    }

    fn keep(&mut self, batch: &[BatchRequest], start: Nanos, outcomes: &[AccessOutcome]) {
        if !self.record {
            return;
        }
        // Issue instants follow the batch contract: each access issues at the
        // previous one's completion (the batch start for the first) plus its
        // own compute gap.
        let mut t = start;
        for (request, outcome) in batch.iter().zip(outcomes) {
            self.issued.push(t + request.compute);
            t = outcome.finished_at;
        }
        self.outcomes.extend_from_slice(outcomes);
    }
}

impl<P: Platform + ?Sized> Platform for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn access(&mut self, access: &Access, now: Nanos) -> AccessOutcome {
        let (a, t) = (allocations(), Instant::now());
        let outcome = self.inner.access(access, now);
        self.served(t, a);
        if self.record {
            self.issued.push(now);
            self.outcomes.push(outcome.clone());
        }
        outcome
    }

    fn serve_batch(&mut self, batch: &[BatchRequest], start: Nanos) -> BatchOutcome {
        let (a, t) = (allocations(), Instant::now());
        let result = self.inner.serve_batch(batch, start);
        self.served(t, a);
        self.keep(batch, start, &result.outcomes);
        result
    }

    fn serve_batch_into(&mut self, batch: &[BatchRequest], start: Nanos, out: &mut BatchOutcome) {
        let (a, t) = (allocations(), Instant::now());
        self.inner.serve_batch_into(batch, start, out);
        self.served(t, a);
        self.keep(batch, start, &out.outcomes);
    }

    fn configure_queues(&mut self, queues: QueueConfig) -> bool {
        self.inner.configure_queues(queues)
    }

    fn configure_shards(&mut self, shards: ShardConfig) -> bool {
        self.inner.configure_shards(shards)
    }

    fn configure_cell_threads(&mut self, workers: usize) -> bool {
        self.inner.configure_cell_threads(workers)
    }

    fn configure_backend(&mut self, topology: BackendTopology) -> bool {
        self.inner.configure_backend(topology)
    }

    fn configure_faults(&mut self, plan: &FaultPlan) -> bool {
        self.inner.configure_faults(plan)
    }

    fn advance_faults(&mut self, now: Nanos) {
        self.inner.advance_faults(now);
    }

    fn configure_trace(&mut self, sink: TelemetrySink) -> bool {
        let (a, t) = (allocations(), Instant::now());
        let honoured = self.inner.configure_trace(sink);
        self.telemetry_add(t, a);
        honoured
    }

    fn take_trace_spans(&mut self, out: &mut Vec<Span>) {
        let before = out.len();
        let (a, t) = (allocations(), Instant::now());
        self.inner.take_trace_spans(out);
        self.telemetry_add(t, a);
        if self.record {
            self.spans.extend_from_slice(&out[before..]);
        }
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        let (a, t) = (allocations(), Instant::now());
        let before = out.len();
        self.inner.telemetry_gauges(out);
        self.telemetry_add(t, a);
        if self.record {
            self.gauges.borrow_mut().push(out[before..].to_vec());
        }
    }

    fn memory_delay(&self) -> LatencyVector {
        self.inner.memory_delay()
    }

    fn device_energy(&self, elapsed: Nanos) -> EnergyAccount {
        self.inner.device_energy(elapsed)
    }

    fn hit_rate(&self) -> Option<f64> {
        self.inner.hit_rate()
    }

    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }
}

/// End-of-run state a runner reads from its platform when it folds the
/// metrics, captured from the real platform so a [`Replay`] reproduces the
/// run's metrics exactly.
#[derive(Debug, Clone)]
pub struct FinalState {
    name: String,
    memory_delay: LatencyVector,
    device_energy: EnergyAccount,
    hit_rate: Option<f64>,
    persistent: bool,
}

impl FinalState {
    /// Captures `platform`'s end-of-run state for a run that ended at
    /// simulated instant `elapsed`.
    pub fn capture(platform: &dyn Platform, elapsed: Nanos) -> Self {
        FinalState {
            name: platform.name().to_owned(),
            memory_delay: platform.memory_delay(),
            device_energy: platform.device_energy(elapsed),
            hit_rate: platform.hit_rate(),
            persistent: platform.is_persistent(),
        }
    }
}

/// Serves a recorded outcome sequence (and, to a traced runner, the
/// platform's recorded spans and gauge samples): the platform costs a slice
/// copy per call, so a run through it times the runner and trace generation
/// alone.
#[derive(Debug)]
pub struct Replay<'a> {
    outcomes: &'a [AccessOutcome],
    next: usize,
    spans: &'a [Span],
    gauges: &'a [Vec<(&'static str, f64)>],
    next_gauges: Cell<usize>,
    state: &'a FinalState,
}

impl<'a> Replay<'a> {
    /// A replay of `outcomes`, `spans` and `gauges` ending in `state`.
    pub fn new(
        outcomes: &'a [AccessOutcome],
        spans: &'a [Span],
        gauges: &'a [Vec<(&'static str, f64)>],
        state: &'a FinalState,
    ) -> Self {
        Replay {
            outcomes,
            next: 0,
            spans,
            gauges,
            next_gauges: Cell::new(0),
            state,
        }
    }

    /// Whether every recorded outcome was served.
    pub fn exhausted(&self) -> bool {
        self.next == self.outcomes.len()
    }

    fn take(&mut self, n: usize) -> &'a [AccessOutcome] {
        let end = self.next + n;
        assert!(
            end <= self.outcomes.len(),
            "the runner asked for more outcomes than the recorded run served"
        );
        let taken = &self.outcomes[self.next..end];
        self.next = end;
        taken
    }
}

impl Platform for Replay<'_> {
    fn name(&self) -> &str {
        &self.state.name
    }

    fn access(&mut self, _access: &Access, _now: Nanos) -> AccessOutcome {
        self.take(1)[0].clone()
    }

    fn serve_batch_into(&mut self, batch: &[BatchRequest], _start: Nanos, out: &mut BatchOutcome) {
        out.outcomes.clear();
        out.outcomes.extend_from_slice(self.take(batch.len()));
    }

    fn take_trace_spans(&mut self, out: &mut Vec<Span>) {
        out.extend_from_slice(std::mem::take(&mut self.spans));
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        let k = self.next_gauges.get();
        if let Some(sample) = self.gauges.get(k) {
            out.extend_from_slice(sample);
            self.next_gauges.set(k + 1);
        }
    }

    fn memory_delay(&self) -> LatencyVector {
        self.state.memory_delay.clone()
    }

    fn device_energy(&self, _elapsed: Nanos) -> EnergyAccount {
        self.state.device_energy.clone()
    }

    fn hit_rate(&self) -> Option<f64> {
        self.state.hit_rate
    }

    fn is_persistent(&self) -> bool {
        self.state.persistent
    }
}

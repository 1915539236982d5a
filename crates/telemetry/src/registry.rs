//! The metrics registry: named counters and gauges sampled into
//! time-bucketed series over the simulation timeline.

use hams_sim::Nanos;

/// What a metric series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A cumulative, monotonically non-decreasing count (journal writes,
    /// per-tenant drops). Buckets report the last sampled value.
    Counter,
    /// An instantaneous level (admission queue depth, in-flight NVMe
    /// commands). Buckets report mean/min/max over their samples.
    Gauge,
}

impl MetricKind {
    /// Stable name used in exports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One time bucket of a sampled series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesBucket {
    /// Simulated start instant of the bucket (a multiple of the registry's
    /// bucket width).
    pub start: Nanos,
    /// Sum of samples landing in the bucket.
    pub sum: f64,
    /// Smallest sample in the bucket.
    pub min: f64,
    /// Largest sample in the bucket.
    pub max: f64,
    /// Most recent sample in the bucket.
    pub last: f64,
    /// Number of samples in the bucket.
    pub samples: u64,
}

impl SeriesBucket {
    fn new(start: Nanos, value: f64) -> Self {
        SeriesBucket {
            start,
            sum: value,
            min: value,
            max: value,
            last: value,
            samples: 1,
        }
    }

    fn push(&mut self, value: f64) {
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        self.samples += 1;
    }

    /// Mean of the samples in the bucket.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sum / self.samples as f64
    }
}

/// One named series: a metric's samples grouped into time buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    name: String,
    kind: MetricKind,
    buckets: Vec<SeriesBucket>,
}

impl MetricSeries {
    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counter or gauge.
    #[must_use]
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// The time buckets, in ascending start order.
    #[must_use]
    pub fn buckets(&self) -> &[SeriesBucket] {
        &self.buckets
    }

    /// The most recent sampled value, if any sample landed.
    #[must_use]
    pub fn last_value(&self) -> Option<f64> {
        self.buckets.last().map(|b| b.last)
    }

    fn record(&mut self, bucket_start: Nanos, value: f64) {
        // Buckets stay sorted by start, so a binary search places any sample,
        // in order or not, in O(log n).
        let pos = self.buckets.partition_point(|b| b.start < bucket_start);
        match self.buckets.get_mut(pos) {
            Some(b) if b.start == bucket_start => b.push(value),
            _ => self
                .buckets
                .insert(pos, SeriesBucket::new(bucket_start, value)),
        }
    }
}

/// Typed counters and gauges sampled into time-bucketed series.
///
/// The registry lives on the *sampling* path, not the per-access hot path:
/// runners sample it once per dispatched batch, so name lookup is a linear
/// scan over a handful of series and samples are plain field updates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    bucket_width: Nanos,
    series: Vec<MetricSeries>,
}

impl MetricsRegistry {
    /// A registry bucketing samples into windows of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    #[must_use]
    pub fn new(bucket_width: Nanos) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be non-zero");
        MetricsRegistry {
            bucket_width,
            series: Vec::new(),
        }
    }

    /// The configured bucket width.
    #[must_use]
    pub fn bucket_width(&self) -> Nanos {
        self.bucket_width
    }

    /// Samples a cumulative counter at simulated instant `at`.
    pub fn counter(&mut self, name: &str, at: Nanos, value: f64) {
        self.sample(name, MetricKind::Counter, at, value);
    }

    /// Samples an instantaneous gauge at simulated instant `at`.
    pub fn gauge(&mut self, name: &str, at: Nanos, value: f64) {
        self.sample(name, MetricKind::Gauge, at, value);
    }

    /// All series, in first-sample order.
    #[must_use]
    pub fn series(&self) -> &[MetricSeries] {
        &self.series
    }

    /// A series by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// `true` when no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn sample(&mut self, name: &str, kind: MetricKind, at: Nanos, value: f64) {
        if !value.is_finite() {
            return; // Telemetry observes; it never poisons a series or panics.
        }
        let width = self.bucket_width.as_nanos();
        let bucket_start = Nanos::from_nanos((at.as_nanos() / width) * width);
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                debug_assert_eq!(s.kind, kind, "metric {name} sampled with two kinds");
                s.record(bucket_start, value);
            }
            None => {
                let mut s = MetricSeries {
                    name: name.to_string(),
                    kind,
                    buckets: Vec::new(),
                };
                s.record(bucket_start, value);
                self.series.push(s);
            }
        }
    }

    /// Renders every series as CSV with one row per (metric, bucket):
    /// `metric,kind,bucket_start_ns,samples,mean,min,max,last`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("metric,kind,bucket_start_ns,samples,mean,min,max,last\n");
        for s in &self.series {
            for b in &s.buckets {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{}",
                    s.name,
                    s.kind.name(),
                    b.start.as_nanos(),
                    b.samples,
                    fmt_f64(b.mean()),
                    fmt_f64(b.min),
                    fmt_f64(b.max),
                    fmt_f64(b.last),
                )
                .ok();
            }
        }
        out
    }

    /// Renders every series as a JSON document:
    /// `{"bucket_width_ns": N, "series": [{"name": ..., "kind": ...,
    /// "buckets": [{"start_ns": ..., "samples": ..., "mean": ..., "min": ...,
    /// "max": ..., "last": ...}, ...]}, ...]}`.
    ///
    /// Hand-rendered like the rest of the workspace's JSON writers; the unit
    /// tests round-trip it through the `serde_json` shim.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"bucket_width_ns\": {},\n  \"series\": [",
            self.bucket_width.as_nanos()
        );
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"buckets\": [",
                escape_json(&s.name),
                s.kind.name()
            );
            for (j, b) in s.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n      {{\"start_ns\": {}, \"samples\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"last\": {}}}",
                    b.start.as_nanos(),
                    b.samples,
                    fmt_f64(b.mean()),
                    fmt_f64(b.min),
                    fmt_f64(b.max),
                    fmt_f64(b.last),
                );
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Formats an f64 so it parses back as a JSON number: finite, with an
/// integer rendering for integral values.
pub(crate) fn fmt_f64(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Minimal JSON string escaping for names and labels.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    #[test]
    fn samples_land_in_the_right_bucket() {
        let mut r = MetricsRegistry::new(us(10));
        r.gauge("queue_depth", us(3), 4.0);
        r.gauge("queue_depth", us(7), 6.0);
        r.gauge("queue_depth", us(12), 2.0);
        let s = r.get("queue_depth").unwrap();
        assert_eq!(s.kind(), MetricKind::Gauge);
        assert_eq!(s.buckets().len(), 2);
        let b0 = &s.buckets()[0];
        assert_eq!(b0.start, Nanos::ZERO);
        assert_eq!(b0.samples, 2);
        assert_eq!(b0.mean(), 5.0);
        assert_eq!(b0.min, 4.0);
        assert_eq!(b0.max, 6.0);
        assert_eq!(s.buckets()[1].start, us(10));
        assert_eq!(s.last_value(), Some(2.0));
    }

    #[test]
    fn out_of_order_samples_insert_sorted() {
        let mut r = MetricsRegistry::new(us(10));
        r.counter("writes", us(25), 9.0);
        r.counter("writes", us(5), 1.0);
        let starts: Vec<u64> = r
            .get("writes")
            .unwrap()
            .buckets()
            .iter()
            .map(|b| b.start.as_nanos())
            .collect();
        assert_eq!(starts, vec![0, 20_000]);
    }

    #[test]
    fn scrambled_samples_land_in_sorted_buckets_with_in_order_sums() {
        // 200 integer samples over 40 buckets, fed in time order and in a
        // fixed scrambled order (77 is coprime to 200, so every index is hit).
        let samples: Vec<(u64, f64)> = (0..200u64).map(|i| (i * 2, i as f64)).collect();
        let mut in_order = MetricsRegistry::new(us(10));
        let mut scrambled = MetricsRegistry::new(us(10));
        for &(t, v) in &samples {
            in_order.gauge("g", us(t), v);
        }
        for i in 0..samples.len() {
            let (t, v) = samples[i * 77 % samples.len()];
            scrambled.gauge("g", us(t), v);
        }
        let a = in_order.get("g").unwrap().buckets();
        let b = scrambled.get("g").unwrap().buckets();
        assert_eq!(b.len(), 40);
        assert!(b.windows(2).all(|w| w[0].start < w[1].start));
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                (x.start, x.samples, x.sum, x.min, x.max),
                (y.start, y.samples, y.sum, y.min, y.max)
            );
        }
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut r = MetricsRegistry::new(us(10));
        r.gauge("g", us(1), f64::NAN);
        r.gauge("g", us(1), f64::INFINITY);
        assert!(r.is_empty());
    }

    #[test]
    fn csv_has_header_and_one_row_per_bucket() {
        let mut r = MetricsRegistry::new(us(10));
        r.gauge("depth", us(1), 3.0);
        r.counter("drops[t0]", us(1), 1.0);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("metric,kind,bucket_start_ns"));
        assert!(lines[1].starts_with("depth,gauge,0,1,3,3,3,3"));
        assert!(lines[2].starts_with("drops[t0],counter,0,1,1,1,1,1"));
    }

    #[test]
    fn fmt_f64_is_json_safe() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(-2.0), "-2");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}

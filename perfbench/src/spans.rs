//! Simulated-time attribution of a traced run's spans to layers.

use hams_sim::Nanos;
use hams_telemetry::{Layer, Span};

/// What one layer's spans covered on the simulated timeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSim {
    /// Spans the layer recorded.
    pub spans: u64,
    /// Simulated time during which this layer was the deepest one active:
    /// its spans' coverage minus the part deeper layers' spans cover.
    pub self_time: Nanos,
}

/// Self time and span count per layer, indexed by [`Layer::index`].
///
/// Spans carry no parent link, so a layer's children are taken to be the
/// spans of every deeper layer (in the request → admission → controller →
/// tag array → NVMe → MSI → archive lane order). Each instant of the
/// timeline is charged to the deepest layer with a span open at that
/// instant, so the per-layer self times tile the union of all spans.
pub fn self_times(spans: &[Span]) -> [LayerSim; Layer::ALL.len()] {
    let mut out = [LayerSim::default(); Layer::ALL.len()];
    // (instant, +1 opens / -1 closes, layer) over each layer's merged
    // intervals, so a layer's open count is 0 or 1.
    let mut events: Vec<(u64, i8, usize)> = Vec::new();
    for layer in Layer::ALL {
        let mut intervals: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.start.as_nanos(), s.end.as_nanos()))
            .collect();
        out[layer.index()].spans = intervals.len() as u64;
        intervals.retain(|&(start, end)| end > start);
        intervals.sort_unstable();
        let mut merged: Option<(u64, u64)> = None;
        for (start, end) in intervals {
            match merged {
                Some((s, e)) if start <= e => merged = Some((s, e.max(end))),
                _ => {
                    if let Some((s, e)) = merged {
                        events.push((s, 1, layer.index()));
                        events.push((e, -1, layer.index()));
                    }
                    merged = Some((start, end));
                }
            }
        }
        if let Some((s, e)) = merged {
            events.push((s, 1, layer.index()));
            events.push((e, -1, layer.index()));
        }
    }
    events.sort_unstable();
    let mut open = [0i32; Layer::ALL.len()];
    let mut prev = 0u64;
    for (at, delta, layer) in events {
        if let Some(deepest) = (0..open.len()).rev().find(|&l| open[l] > 0) {
            out[deepest].self_time += Nanos::from_nanos(at - prev);
        }
        open[layer] += i32::from(delta);
        prev = at;
    }
    out
}

/// Nearest-rank percentile (the rank rule of `hams_sim::Histogram`) of an
/// ascending list; `None` when it is empty.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64) -> Span {
        Span::new(layer, "t", Nanos::from_nanos(start), Nanos::from_nanos(end))
    }

    #[test]
    fn deepest_layer_takes_the_instant() {
        let spans = [
            span(Layer::Request, 0, 100),
            span(Layer::Controller, 10, 60),
            span(Layer::Archive, 20, 40),
            span(Layer::Archive, 30, 50),
        ];
        let sim = self_times(&spans);
        assert_eq!(sim[Layer::Request.index()].self_time.as_nanos(), 50);
        assert_eq!(sim[Layer::Controller.index()].self_time.as_nanos(), 20);
        assert_eq!(sim[Layer::Archive.index()].self_time.as_nanos(), 30);
        assert_eq!(sim[Layer::Archive.index()].spans, 2);
    }

    #[test]
    fn nearest_rank_matches_the_histogram_rule() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
        assert_eq!(nearest_rank(&v, 99.0), Some(99));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }
}

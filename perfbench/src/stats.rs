//! Order statistics over raw samples.

/// Median of `values` (sorted in place); 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Requests per window of [`BlockPercentiles`] and per throughput window:
/// the fewest whose p99 has ten samples beyond it.
pub const WINDOW: usize = 1024;

/// Latency percentiles taken window by window from raw samples.
///
/// Raw latencies are collected in windows of [`WINDOW`] requests; each
/// window's p50 and p99 come from all of its samples, and the run reports
/// the median over windows. A host stall then moves the figures of the few
/// windows it hits, not the run's, and memory stays bounded by one window.
#[derive(Debug, Default)]
pub struct BlockPercentiles {
    window: Vec<u64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
}

impl BlockPercentiles {
    /// Adds one raw latency (ns).
    pub fn push(&mut self, latency_ns: u64) {
        self.window.push(latency_ns);
        if self.window.len() == WINDOW {
            self.window.sort_unstable();
            self.p50s.push(percentile(&self.window, 0.50) as f64);
            self.p99s.push(percentile(&self.window, 0.99) as f64);
            self.window.clear();
        }
    }

    /// Samples in the window still being filled.
    pub fn pending(&self) -> usize {
        self.window.len()
    }

    /// Median over windows of the window p50, in µs.
    pub fn p50_us(&mut self) -> f64 {
        median(&mut self.p50s) / 1e3
    }

    /// Median over windows of the window p99, in µs.
    pub fn p99_us(&mut self) -> f64 {
        median(&mut self.p99s) / 1e3
    }
}

//! Percentiles with the benchmark's validity rule, and the metric record
//! every workload reports.
//!
//! A percentile is reported only when at least ten samples lie beyond it;
//! otherwise it is marked invalid and never printed as a number.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an unsorted sample, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Plain median (no validity rule): for per-layer figures and the medians
/// of repeated set-ups, where the sample count is reported beside it.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// One reported metric: name, value (`None` = invalid), unit and the
/// number of samples it was computed from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
}

/// An ordered list of metrics under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn put(
        &mut self,
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds the median and 95th percentile of a latency sample (in ms) as
    /// `<prefix>_p50_ms` and `<prefix>_p95_ms`.
    pub fn latency(&mut self, prefix: &str, ms: &[f64]) {
        self.put(
            format!("{prefix}_p50_ms"),
            percentile(ms, 0.50),
            "ms",
            ms.len(),
        );
        self.put(
            format!("{prefix}_p95_ms"),
            percentile(ms, 0.95),
            "ms",
            ms.len(),
        );
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // Only 5 samples lie beyond the 95th percentile of 100.
        assert_eq!(percentile(&v, 0.95), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
    }
}

//! Measurement instrumentation: event counters and trial series.
//!
//! Every number the experiment harness reports flows through one of these
//! types, so the collection semantics (what counts, over which window) are
//! uniform across figures.

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Mean and sample standard deviation of a series of f64 observations,
/// matching the "average latency with STD reported from 5 trials" format of
/// Table 3.
#[derive(Debug, Clone, Default)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (zero for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (zero for fewer than two observations).
    pub fn std(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn series_mean_and_std() {
        let mut s = Series::new();
        for v in [51.2, 51.9, 51.5, 52.0, 51.4] {
            s.push(v);
        }
        assert!((s.mean() - 51.6).abs() < 1e-9);
        assert!(s.std() > 0.0 && s.std() < 1.0);
        let empty = Series::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std(), 0.0);
    }
}

//! Order statistics over per-operation samples.

/// Samples of one operation class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Mean of the middle 80% of the samples: as efficient as the mean
    /// on multimodal per-operation times, but one stray operation cannot
    /// move it far.
    pub fn trimmed_mean(&self) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let cut = v.len() / 10;
        let middle = &v[cut..v.len() - cut];
        if middle.is_empty() {
            0.0
        } else {
            middle.iter().sum::<f64>() / middle.len() as f64
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Linear-interpolated quantile (the "inclusive" definition); 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The 90th percentile, or `None` with fewer than 100 samples: a
    /// tail is reported only when at least ten samples lie beyond it.
    pub fn p90(&self) -> Option<f64> {
        (self.values.len() >= 100).then(|| self.quantile(0.9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.p90(), None);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let mut s = Samples::default();
        for v in [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0] {
            s.push(v);
        }
        assert_eq!(s.trimmed_mean(), 4.5);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(f64::from(i));
        }
        assert!((s.p90().unwrap() - 89.1).abs() < 1e-9);
    }
}

//! Small statistics helpers: CDF/CCDF series, quantiles, fractions.

/// An empirical distribution over `f64` samples.
#[derive(Clone, Debug, Default)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Distribution {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Distribution { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx =
            ((q * (self.sorted.len() - 1) as f64).round() as usize).min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Fraction of samples ≤ `x` (the CDF).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples ≥ `x` (the CCDF, inclusive — matches the
    /// paper's "fraction of pairs with at least x").
    pub fn ccdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let n = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - n) as f64 / self.sorted.len() as f64
    }

    /// `(x, CDF(x))` points at the given xs.
    pub fn cdf_series(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.cdf_at(x))).collect()
    }

    /// `(x, CCDF(x))` points at the given xs.
    pub fn ccdf_series(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.ccdf_at(x))).collect()
    }
}

/// `a / b`, or NaN when `b == 0` — convenient for fraction-of rows.
pub fn fraction(a: usize, b: usize) -> f64 {
    if b == 0 {
        f64::NAN
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_moments() {
        let d = Distribution::new(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(d.len(), 5);
        assert_eq!(d.median(), 3.0);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 5.0);
    }

    #[test]
    fn cdf_ccdf_complement() {
        let d = Distribution::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(d.cdf_at(2.0), 0.75);
        assert_eq!(d.ccdf_at(2.0), 0.75); // inclusive on both sides at ties
        assert_eq!(d.cdf_at(0.5), 0.0);
        assert_eq!(d.ccdf_at(0.5), 1.0);
        assert_eq!(d.cdf_at(3.0), 1.0);
    }

    #[test]
    fn nan_handling_and_empty() {
        let d = Distribution::new(vec![f64::NAN, 1.0]);
        assert_eq!(d.len(), 1);
        let e = Distribution::new(vec![]);
        assert!(e.median().is_nan());
        assert!(e.cdf_at(1.0).is_nan());
    }

    #[test]
    fn helpers() {
        assert_eq!(fraction(1, 4), 0.25);
        assert!(fraction(1, 0).is_nan());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CDF and CCDF are monotone and complementary-ish at every x.
        #[test]
        fn cdf_ccdf_properties(samples in proptest::collection::vec(-100.0f64..100.0, 1..60)) {
            let d = Distribution::new(samples.clone());
            let xs: Vec<f64> = (0..23).map(|i| -110.0 + 10.0 * f64::from(i)).collect();
            let mut prev = 0.0;
            for &x in &xs {
                let c = d.cdf_at(x);
                prop_assert!((0.0..=1.0).contains(&c));
                prop_assert!(c + 1e-12 >= prev, "CDF must be monotone");
                prev = c;
                // Everything below min is CCDF 1, above max CDF 1.
            }
            prop_assert_eq!(d.cdf_at(110.0), 1.0);
            prop_assert_eq!(d.ccdf_at(-110.0), 1.0);
            // Quantiles bracket the data.
            prop_assert!(d.quantile(0.0) <= d.median());
            prop_assert!(d.median() <= d.quantile(1.0));
        }

        /// The mean lies within [min, max] and matches a direct computation.
        #[test]
        fn mean_is_consistent(samples in proptest::collection::vec(-1e6f64..1e6, 1..60)) {
            let d = Distribution::new(samples.clone());
            let direct = samples.iter().sum::<f64>() / samples.len() as f64;
            prop_assert!((d.mean() - direct).abs() < 1e-6 * (1.0 + direct.abs()));
            prop_assert!(d.mean() >= d.quantile(0.0) - 1e-9);
            prop_assert!(d.mean() <= d.quantile(1.0) + 1e-9);
        }
    }
}

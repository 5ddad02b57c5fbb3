//! The few statistics the benchmark fixes by name: nearest-rank
//! percentiles over samples, the fastest round, and the quartiles `compare`
//! judges run sets by.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Wall time of the fastest round.
pub fn fastest_round(walls: &[f64]) -> f64 {
    walls
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("a timed round ran")
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the driver judges spread with
/// exactly that function. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based axis, interpolated linearly.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(nearest_rank(&v, 5.0), 15);
        assert_eq!(nearest_rank(&v, 30.0), 20);
        assert_eq!(nearest_rank(&v, 40.0), 20);
        assert_eq!(nearest_rank(&v, 50.0), 35);
        assert_eq!(nearest_rank(&v, 100.0), 50);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn the_fastest_round_is_the_smallest_wall() {
        assert_eq!(fastest_round(&[1.25, 0.75, 1.0, 0.875]), 0.75);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
    }
}

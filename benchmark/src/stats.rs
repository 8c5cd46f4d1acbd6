//! Robust statistics with fixed definitions: the percentile behind a metric
//! name is a constant, and a sample too small to support it is an error,
//! never a silent downgrade to a lower percentile.

use std::fmt;

/// A sample cannot support the statistic asked of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    pub statistic: &'static str,
    pub have: usize,
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} needs at least {} samples, have {}",
            self.statistic, self.need, self.have
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Result<f64, TooFewSamples> {
    if xs.is_empty() {
        return Err(TooFewSamples {
            statistic: "median",
            have: 0,
            need: 1,
        });
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    Ok(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The median of per-round medians: one slow round moves one of the inner
/// medians, not the result.
pub fn median_of_medians(rounds: &[Vec<f64>]) -> Result<f64, TooFewSamples> {
    let inner: Result<Vec<f64>, _> = rounds.iter().map(|r| median(r)).collect();
    median(&inner?)
}

/// The 99th percentile of a pooled sample, nearest-rank, with at least
/// `beyond` samples above it (the rule of thumb that makes a tail
/// percentile a measurement and not the maximum under another name).
pub fn p99(xs: &[f64], beyond: usize) -> Result<f64, TooFewSamples> {
    let need = (beyond * 100).max(1);
    if xs.len() < need {
        return Err(TooFewSamples {
            statistic: "p99",
            have: xs.len(),
            need,
        });
    }
    let v = sorted(xs);
    let rank = (v.len() * 99).div_ceil(100); // 1-based nearest rank
    Ok(v[rank - 1])
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default, exclusive method) gives
/// them — the definition the benchmark's acceptance check uses.
pub fn quartiles(xs: &[f64]) -> Result<(f64, f64), TooFewSamples> {
    if xs.len() < 2 {
        return Err(TooFewSamples {
            statistic: "quartiles",
            have: xs.len(),
            need: 2,
        });
    }
    let v = sorted(xs);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Ok((cut(1), cut(3)))
}

/// Quartile distance as a share of the median: the spread the acceptance
/// check bounds, and what each run prints over its own rounds.
pub fn quartile_spread(xs: &[f64]) -> Result<f64, TooFewSamples> {
    let (q1, q3) = quartiles(xs)?;
    Ok((q3 - q1) / median(xs)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn median_of_medians_ignores_one_bad_round() {
        let rounds = vec![
            vec![1.0, 1.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![90.0, 95.0, 99.0],
        ];
        assert_eq!(median_of_medians(&rounds).unwrap(), 1.0);
        assert!(median_of_medians(&[vec![1.0], vec![]]).is_err());
    }

    #[test]
    fn p99_is_nearest_rank_and_refuses_small_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&xs, 10).unwrap(), 990.0);
        assert_eq!(
            p99(&xs[..999], 10).unwrap_err(),
            TooFewSamples {
                statistic: "p99",
                have: 999,
                need: 1000
            }
        );
        // beyond = 0 is the smoke rule: any non-empty sample will do.
        assert_eq!(p99(&[5.0, 7.0], 0).unwrap(), 7.0);
        assert!(p99(&[], 0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs).unwrap(), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]).unwrap(), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), (0.75, 2.25));
        assert!(quartiles(&[1.0]).is_err());
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs).unwrap() - 1.0).abs() < 1e-12);
    }
}

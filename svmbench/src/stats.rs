//! Summaries of repeated measurements: median, extremes, and which tail
//! percentile a sample count can support.

/// Median, extremes and count of one metric over the reps of a run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `None` for an empty sample set: there is nothing to report.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Some(Summary {
            median,
            min: v[0],
            max: v[n - 1],
            n,
        })
    }
}

/// The tail percentiles svmbench reports, lowest first.
pub const TAILS: [(&str, f64); 3] = [("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// The highest of [`TAILS`] that still has at least ten of `n` samples
/// beyond it; a percentile resting on fewer is one or two outliers, not a
/// tail. `None` below a hundred samples.
pub fn highest_supported_tail(n: u64) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&(_, q)| samples_beyond(n, q) >= 10)
}

/// Samples strictly above the value at quantile `q` of `n` sorted samples,
/// under the `ceil(q * n)`-th order statistic definition `scc_kv`'s
/// histogram uses.
fn samples_beyond(n: u64, q: f64) -> u64 {
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    /// The naive model: sort `n` distinct samples, take the quantile's
    /// order statistic, count what lies above it.
    fn naive_beyond(n: u64, q: f64) -> u64 {
        let sorted: Vec<u64> = (0..n).collect();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n as usize) - 1;
        sorted.iter().filter(|&&v| v > sorted[idx]).count() as u64
    }

    #[test]
    fn supported_tail_matches_the_naive_model() {
        for n in (1..400).chain([999, 1000, 1001, 9_999, 10_000, 10_001, 35_840, 67_200]) {
            let want = TAILS
                .iter()
                .rev()
                .find(|&&(_, q)| naive_beyond(n, q) >= 10)
                .map(|t| t.0);
            assert_eq!(highest_supported_tail(n).map(|t| t.0), want, "n = {n}");
        }
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(1_000).unwrap().0, "p99");
        assert_eq!(highest_supported_tail(10_000).unwrap().0, "p999");
    }
}

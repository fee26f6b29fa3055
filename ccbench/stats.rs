//! Order statistics, interval arithmetic for span self time, and the
//! metric-name rule — the helpers every report and `compare` share.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the acceptance check's. A single value
/// is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return [s.first().copied().unwrap_or(0.0); 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for two samples: Python extrapolates there, and so do we.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest percentile of `values` that still has at least ten samples
/// above it, as `(percentile, value)` by the nearest-rank rule, picked
/// from p99.9, p99, p90 and p50. `None` when fewer than 20 samples exist,
/// since then not even the median has ten samples beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    [999usize, 990, 900, 500].into_iter().find_map(|per_mille| {
        let rank = (per_mille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, s[rank - 1]))
    })
}

/// Total length covered by the union of half-open intervals `[a, b)`.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in iv {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0.0, |(a, b)| b - a)
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover. Children running concurrently on
/// different threads overlap, so the covered part is the union of their
/// intervals (clipped to the span), never the sum of their durations.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = span;
    let clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .collect();
    (end - start) - union_len(&clipped)
}

/// Metric names are non-empty and drawn from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[2.0]), [2.0; 3]);
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&[]), None);
        let short: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&short), None, "p50 of 19 has 9 above");
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A join span [0, 10) over jobs on two workers: worker 0 runs
        // [1, 5) then [6, 9), worker 1 runs [2, 7). The jobs cover [1, 9):
        // 8 units, so the span's own time is 2 — not 10 - (4 + 3 + 5).
        let jobs = [(1.0, 5.0), (6.0, 9.0), (2.0, 7.0)];
        assert_eq!(union_len(&jobs), 8.0);
        assert_eq!(self_time((0.0, 10.0), &jobs), 2.0);
        // Children are clipped to the span; disjoint ones simply add.
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 1.0), (9.0, 20.0)]), 8.0);
        assert_eq!(self_time((0.0, 4.0), &[]), 4.0);
        assert_eq!(union_len(&[(3.0, 3.0), (5.0, 4.0)]), 0.0);
    }

    #[test]
    fn metric_names_use_the_documented_charset() {
        for ok in ["wall_s", "cliquesim.step_s", "jobs.wall_p50_s", "a-b.9"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "wall s", "rate/s", "naïve", "x\"y"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}

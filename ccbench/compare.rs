//! `ccbench compare A B`: read two files of saved benchmark output (any
//! number of runs each, concatenated), and for every workload and metric
//! print both sides' median and quartiles and whether B is within the
//! metric's `BENCHMARK.json` bound of A.

use std::collections::BTreeMap;

use crate::spec::Spec;
use crate::stats::{quartiles, spread};

/// `(workload, metric) → values`, from the `metric` lines of `text`.
pub fn read_metrics(text: &str) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", workload, name, value, _unit] = f[..] {
            if let Ok(v) = value.parse::<f64>() {
                out.entry((workload.to_string(), name.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// The share of failed operations, printed as a `metric` line by every
/// run. Correct runs have none, so both sides must read 0.
pub const ERROR_RATE: &str = "error_rate";

/// How a metric compares between the two sides.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Per-layer metric: reported, never judged.
    Unbounded,
    Within,
    /// An exact metric (bound 0) with the same values on both sides.
    Identical,
    Regression,
    /// An exact metric (bound 0) whose values differ between the sides.
    Changed,
    /// Within the bound, but a side's own spread is wider than the bound.
    Unresolved,
    /// `error_rate` above 0 on a side.
    Failed,
    Missing,
}

impl Verdict {
    /// Whether this verdict lets `compare` succeed.
    pub fn passes(&self) -> bool {
        matches!(
            self,
            Verdict::Unbounded | Verdict::Within | Verdict::Identical | Verdict::Unresolved
        )
    }
}

/// Judge B against A for a metric with `bound` (a share of A's median).
/// A bound of 0 marks an exact count, such as simulated rounds: the two
/// sides agree only if they read the same values, run for run.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Unbounded;
    };
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    if bound == 0.0 {
        return if sorted(a) == sorted(b) {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    let allowed = bound * ma.abs();
    if worse > allowed + 1e-12 * ma.abs().max(1.0) {
        Verdict::Regression
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// Judge the failure shares of both sides: every run must have none.
pub fn error_verdict(a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        Verdict::Missing
    } else if a.iter().chain(b).any(|&x| x != 0.0) {
        Verdict::Failed
    } else {
        Verdict::Identical
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `x` to six significant digits.
fn significant(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (5 - magnitude).max(0) as usize)
}

/// Print the comparison; returns `false` if any bounded metric regressed
/// or is missing on one side, an exact metric changed, or a side had
/// failed operations.
pub fn compare(a_text: &str, b_text: &str, spec: &Spec) -> bool {
    let (a, b) = (read_metrics(a_text), read_metrics(b_text));
    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort_by_key(|(w, m)| {
        let order = spec.all().position(|s| s.name == *m).unwrap_or(usize::MAX);
        (w.clone(), order, m.clone())
    });
    keys.dedup();
    let empty = Vec::new();
    let mut ok = true;
    println!(
        "{:<15} {:<32} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "change"
    );
    for key in keys {
        let (va, vb) = (a.get(key).unwrap_or(&empty), b.get(key).unwrap_or(&empty));
        let m = spec.metric(&key.1);
        let bound = m.and_then(|m| m.bound);
        let v = if key.1 == ERROR_RATE {
            error_verdict(va, vb)
        } else {
            verdict(va, vb, m.is_none_or(|m| m.lower_is_better), bound)
        };
        ok &= v.passes();
        let side = |vals: &[f64]| {
            if vals.is_empty() {
                "-".to_string()
            } else {
                let [q1, q2, q3] = quartiles(vals).map(significant);
                format!("{q2} [{q1}, {q3}] ({})", vals.len())
            }
        };
        let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
        let change = if ma != 0.0 {
            format!("{:+.2}%", (mb - ma) / ma.abs() * 100.0)
        } else {
            "-".to_string()
        };
        let said = match (v, bound) {
            (Verdict::Unbounded, _) => "no bound".to_string(),
            (Verdict::Identical, _) => "identical".to_string(),
            (Verdict::Changed, _) => "CHANGED (exact)".to_string(),
            (Verdict::Failed, _) => "FAILED operations".to_string(),
            (Verdict::Within, Some(b)) => format!("within {:.0}% bound", b * 100.0),
            (Verdict::Regression, Some(b)) => format!("REGRESSION (bound {:.0}%)", b * 100.0),
            (Verdict::Unresolved, Some(b)) => format!(
                "unresolved: spread {:.1}% / {:.1}% wider than the {:.0}% bound",
                spread(va) * 100.0,
                spread(vb) * 100.0,
                b * 100.0
            ),
            _ => "MISSING on one side".to_string(),
        };
        println!(
            "{:<15} {:<32} {:>34} {:>34} {:>8}  {said}",
            key.0,
            key.1,
            side(va),
            side(vb),
            change
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_metric_lines_and_ignores_the_rest() {
        let text = "# header\nmetric w wall_s 1.5 s\nmetric w error_rate 0.25 fraction\nmetric w wall_s 2.5 s\n{\"correct\": false, \"attempted\": 4, \"failed\": 1}\nmetric w bits x bits\n";
        let m = read_metrics(text);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&("w".to_string(), "wall_s".to_string())], vec![1.5, 2.5]);
        assert_eq!(m[&("w".to_string(), ERROR_RATE.to_string())], vec![0.25]);
    }

    #[test]
    fn exact_metrics_must_match_run_for_run() {
        let a = [2578.0, 2580.0, 2576.0];
        assert_eq!(
            verdict(&a, &[2576.0, 2578.0, 2580.0], true, Some(0.0)),
            Verdict::Identical
        );
        // One extra round in one run is a change, even with equal medians.
        assert_eq!(
            verdict(&a, &[2578.0, 2581.0, 2576.0], true, Some(0.0)),
            Verdict::Changed
        );
        // Fewer rounds is a change too: the modelled cost moved.
        assert_eq!(
            verdict(&a, &[2577.0, 2579.0, 2575.0], true, Some(0.0)),
            Verdict::Changed
        );
        assert!(!Verdict::Changed.passes());
    }

    #[test]
    fn any_failed_operation_fails_the_comparison() {
        assert_eq!(error_verdict(&[0.0, 0.0], &[0.0]), Verdict::Identical);
        assert_eq!(error_verdict(&[0.0, 0.0], &[0.0, 0.05]), Verdict::Failed);
        assert_eq!(error_verdict(&[0.5], &[0.5]), Verdict::Failed);
        assert_eq!(error_verdict(&[0.0], &[]), Verdict::Missing);
        assert!(!Verdict::Failed.passes());
        assert!(!Verdict::Missing.passes());
    }

    #[test]
    fn compare_fails_on_failed_runs_and_changed_counts() {
        let spec = Spec::load();
        let run = |wall: f64, rounds: u64, error: f64| {
            format!(
                "metric w wall_s {wall} s\nmetric w rounds {rounds} rounds\nmetric w error_rate {error} fraction\n"
            )
        };
        let a = run(1.0, 100, 0.0).repeat(3);
        assert!(compare(&a, &run(1.01, 100, 0.0).repeat(3), &spec));
        assert!(!compare(&a, &run(1.0, 100, 0.1).repeat(3), &spec));
        assert!(!compare(&a, &run(1.0, 101, 0.0).repeat(3), &spec));
    }

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        let a = [10.0, 10.0, 10.0];
        assert_eq!(verdict(&a, &[10.5; 3], true, Some(0.1)), Verdict::Within);
        assert_eq!(
            verdict(&a, &[11.5; 3], true, Some(0.1)),
            Verdict::Regression
        );
        assert_eq!(verdict(&a, &[5.0; 3], true, Some(0.1)), Verdict::Within);
        assert_eq!(
            verdict(&a, &[8.5; 3], false, Some(0.1)),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&a, &[10.0, 8.0, 12.0], true, Some(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&a, &[10.0; 3], true, Some(0.0)), Verdict::Identical);
        assert_eq!(verdict(&a, &[], true, Some(0.1)), Verdict::Missing);
        assert_eq!(verdict(&a, &[99.0], true, None), Verdict::Unbounded);
    }
}

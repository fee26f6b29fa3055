//! `ccbench`: one command for end-to-end and per-layer timing of the
//! congested-clique workbench across four workloads.
//!
//! ```text
//! ccbench --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1]
//!         [--smoke] [--spans <file>]
//! ccbench compare <A> <B>
//! ```
//!
//! Each run judges an untimed warm-up rep on the workload's reference
//! instance and the first timed rep on the seeded one against independent
//! oracles, times reps back to back for `--seconds`, and prints every
//! metric as a `metric <workload> <name> <value> <unit>` line followed by
//! one JSON result line. `--trace 1` traces every second rep and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`.

mod adversary;
mod algebra;
mod atlas;
mod broadcast;
mod compare;
mod runner;
mod spec;
mod stats;
mod trace;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use runner::{measure, Outcome, REFERENCE_SEED};
use spec::{parse_result, Spec};

const USAGE: &str = "usage: ccbench --workload <name|all> --seed <u64> [--seconds <s>] \
[--trace 0|1] [--smoke] [--spans <file>]\n       ccbench compare <A> <B>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
}

fn parse_args(spec: &Spec, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=3600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--spans" => args.spans = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {:?}; one of {} or all",
            args.workload,
            spec.workloads.join(", ")
        ));
    }
    Ok(args)
}

/// Run one workload in this process, with its reference instance built
/// from [`REFERENCE_SEED`].
fn run_workload(name: &str, seed: u64, smoke: bool, seconds: f64, trace: bool) -> Outcome {
    match name {
        "algebra-216" => {
            let n = if smoke { 27 } else { 216 };
            let at = |seed| algebra::Algebra { n, seed };
            measure(&at(seed), &at(REFERENCE_SEED), seconds, trace)
        }
        "atlas-fleet" => {
            let grid = if smoke {
                atlas::smoke_grid()
            } else {
                atlas::full_grid()
            };
            let w = atlas::Atlas::new(grid.clone(), seed).with_oracle();
            let reference = atlas::Atlas::new(grid, REFERENCE_SEED);
            let mut out = measure(&w, &reference, seconds, trace);
            let oracle = w.oracle_wall.as_secs_f64();
            let wall = out.end_to_end[0].1;
            out.info.push(format!(
                "# serial oracle {oracle:.6} s, fleet width {} median {wall:.6} s, speedup {:.3}",
                runner::Workload::width(&w),
                if wall > 0.0 { oracle / wall } else { 0.0 },
            ));
            out
        }
        "adversary-256" => {
            let at = |seed| adversary::Adversary {
                sizes: if smoke { vec![16] } else { vec![128, 256] },
                plan_seeds: if smoke { vec![1] } else { vec![1, 2, 3] },
                seed,
            };
            measure(&at(seed), &at(REFERENCE_SEED), seconds, trace)
        }
        "broadcast-4096" => {
            let at = |seed| broadcast::Broadcast {
                n: if smoke { 64 } else { 4096 },
                rounds: 8,
                seed,
            };
            measure(&at(seed), &at(REFERENCE_SEED), seconds, trace)
        }
        other => unreachable!("workload {other:?} was validated against BENCHMARK.json"),
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Print one run: header, info lines, metric lines, then the JSON result
/// as the last line.
fn report(args: &Args, spec: &Spec, out: &Outcome) {
    println!(
        "# ccbench workload={} seed={} seconds={} trace={} smoke={} host_parallelism={} git_sha={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        git_sha(),
    );
    for line in &out.info {
        println!("{line}");
    }
    println!("# {} failed of {} operations", out.failed, out.attempted);
    // Not a `BENCHMARK.json` metric, whose metrics are never 0, but read
    // by `compare`, which requires it to be 0 on both sides.
    println!(
        "metric {} {} {} fraction",
        args.workload,
        compare::ERROR_RATE,
        json_number(out.failed as f64 / out.attempted.max(1) as f64)
    );
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let unit = |name: &str| {
        spec.metric(name)
            .map_or("?", |m| m.unit.as_str())
            .to_string()
    };
    for (name, value) in metrics {
        println!(
            "metric {} {name} {} {}",
            args.workload,
            json_number(*value),
            unit(name)
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

/// Run every workload in a child process of its own, so each reports its
/// own peak RSS; forward their output and end with a combined result.
fn run_all(args: &Args, spec: &Spec) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in &spec.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {w}: {e}"))?;
        let mut last = None;
        let stdout = child.stdout.take().expect("stdout was piped");
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading {w}: {e}"))?;
            println!("{line}");
            last = Some(line);
        }
        let status = child.wait().map_err(|e| format!("waiting for {w}: {e}"))?;
        match last.as_deref().and_then(parse_result) {
            Some((c, a, f)) if status.success() => {
                correct &= c;
                attempted += a;
                failed += f;
            }
            _ => return Err(format!("workload {w} exited with {status} and no result")),
        }
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
    Ok(())
}

/// The checked-out commit, read from `.git` in the working directory
/// only (never a parent directory); `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &argv[..] else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match (read(a), read(b)) {
            (Ok(a), Ok(b)) if compare::compare(&a, &b, &spec) => ExitCode::SUCCESS,
            (Ok(_), Ok(_)) => ExitCode::from(1),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("ccbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&spec, &argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ccbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args, &spec) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ccbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let epoch = Instant::now();
    let out = run_workload(
        &args.workload,
        args.seed,
        args.smoke,
        args.seconds,
        args.trace,
    );
    if let Some(path) = &args.spans {
        if let Err(e) = trace::write_spans(path, &out.spans, epoch) {
            eprintln!("ccbench: cannot write spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    report(&args, &spec, &out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The rot test: every workload at smoke size, traced (so both the
    /// untraced end-to-end reps and a traced rep run), must pass every
    /// judge and emit exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn every_workload_passes_its_judges_and_emits_the_declared_metrics() {
        let spec = Spec::load();
        let declared: BTreeSet<&str> = spec.all().map(|m| m.name.as_str()).collect();
        for w in &spec.workloads {
            let out = run_workload(w, 7, true, 0.0, true);
            assert!(out.attempted > 0, "{w}: nothing attempted");
            assert_eq!(out.failed, 0, "{w}: error_rate must be 0");
            let emitted: BTreeSet<&str> = out
                .end_to_end
                .iter()
                .chain(&out.per_layer)
                .map(|m| m.0)
                .collect();
            assert_eq!(emitted, declared, "{w}: emitted metric names");
            for (name, value) in out.end_to_end.iter().chain(&out.per_layer) {
                assert!(value.is_finite(), "{w}: {name} = {value}");
            }
            for (name, value) in &out.end_to_end {
                assert!(*value > 0.0, "{w}: end-to-end {name} must never be 0");
            }
        }
    }

    #[test]
    fn arguments_are_validated_where_they_enter() {
        let spec = Spec::load();
        let args =
            |a: &[&str]| parse_args(&spec, &a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "broadcast-4096",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}

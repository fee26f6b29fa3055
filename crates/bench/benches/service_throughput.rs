//! Fleet throughput: one 100-job batch through `cc-service` at scheduler
//! widths {1, 4, 8}, against the serial oracle baseline.
//!
//! Before any number is recorded, every width's outcomes are asserted
//! byte-identical to [`Batch::run_serial`] — a benchmark of a scheduler
//! that changed results would be measuring a bug. The timed quantity is
//! wall-clock to fully drain the batch; throughput scales with the
//! *host's* cores, so the report records `host_parallelism` next to every
//! row and the scaling gate is explicitly conditional on it.
//!
//! Environment knobs (all optional):
//! - `BENCH_ENGINE_JSON`: path of the shared JSON report (default
//!   `BENCH_engine.json`; a relative path is taken from the workspace
//!   root); this bench splices a `service_throughput` section into it,
//!   preserving the `engine_parallel` sections.
//! - `BENCH_SMOKE=1`: fewer repetitions and smaller jobs for CI.
//! - `BENCH_ENFORCE_SERVICE=1`: exit non-zero unless width 8 beats
//!   width 1 by ≥ 3× — enforced only on hosts with ≥ 4 cores, where the
//!   scaling is physically possible; single-core hosts record honest
//!   numbers and skip the gate (CI's 4-vCPU runners carry it).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cc_bench::engine_json_path;
use cc_service::{Batch, JobSpec, Service, TenantId};
use cliquesim::{BitString, Engine, Inbox, NodeCtx, NodeProgram, Outbox, Session, Status};
use criterion::{criterion_group, Criterion};

/// Same broadcast-gossip workload as `engine_parallel`: per-round id
/// chatter with an order-sensitive accumulator.
struct Gossip {
    rounds: usize,
    acc: u64,
}

impl NodeProgram for Gossip {
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        for (u, m) in inbox.iter() {
            self.acc = self
                .acc
                .wrapping_add(u.0 as u64 ^ m.reader().read_uint(ctx.id_width()).unwrap_or(0));
        }
        if round >= self.rounds {
            return Status::Halt(self.acc);
        }
        let mut m = BitString::new();
        m.push_uint(
            (ctx.id.0 as u64 + round as u64) & ((1 << ctx.id_width()) - 1),
            ctx.id_width(),
        );
        outbox.broadcast(&m);
        Status::Continue
    }
}

/// The benchmark batch: `jobs` independent gossip simulations spread
/// round-robin over 4 tenants. Independent on purpose — dependency
/// chains serialise by construction and would only mask scheduler
/// scaling.
fn batch(jobs: usize, n: usize, rounds: usize) -> Batch {
    let mut b = Batch::new();
    for i in 0..jobs {
        b.push(JobSpec::new(
            TenantId((i % 4) as u32),
            format!("gossip[n={n}, job={i}]"),
            Engine::new(n),
            Arc::new(move |s: &mut Session, _d: &cc_service::DepOutputs| {
                let out = s
                    .run((0..n).map(|_| Gossip { rounds, acc: 0 }).collect())
                    .map_err(|e| e.to_string())?;
                Ok(out.outputs.iter().flat_map(|v| v.to_le_bytes()).collect())
            }),
        ));
    }
    b
}

fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct Row {
    width: usize,
    median_ms: f64,
    jobs_per_sec: f64,
}

/// Splice the `service_throughput` section into the shared JSON report.
/// The section is always the last key before the closing brace, so the
/// merge is: drop any previous section, strip the final `}`, append.
fn splice_json(path: &Path, smoke: bool, jobs: usize, host: usize, serial_ms: f64, rows: &[Row]) {
    let existing = std::fs::read_to_string(path)
        .unwrap_or_else(|_| "{\n  \"bench\": \"engine_parallel\"\n}\n".to_string());
    let head = match existing.find(",\n  \"service_throughput\"") {
        Some(idx) => existing[..idx].to_string(),
        None => {
            let idx = existing.rfind('}').unwrap_or(existing.len());
            existing[..idx].trim_end().to_string()
        }
    };
    let mut out = head;
    out.push_str(",\n  \"service_throughput\": {\n");
    out.push_str(&format!("    \"smoke\": {smoke},\n"));
    out.push_str(&format!("    \"jobs\": {jobs},\n"));
    out.push_str(&format!("    \"host_parallelism\": {host},\n"));
    out.push_str(&format!("    \"serial_oracle_ms\": {serial_ms:.3},\n"));
    out.push_str("    \"widths\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"width\": {}, \"median_ms\": {:.3}, \"jobs_per_sec\": {:.1}}}{}\n",
            r.width,
            r.median_ms,
            r.jobs_per_sec,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("    ]\n  }\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {} (service_throughput section)", path.display());
}

fn bench(_c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (jobs, n, rounds, reps) = if smoke {
        (40, 16, 4, 2)
    } else {
        (100, 24, 8, 3)
    };
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Correctness gate before any timing: every width must match the
    // serial oracle byte for byte.
    let reference = batch(jobs, n, rounds).run_serial().expect("valid batch");
    for width in [1usize, 4, 8] {
        let service = Service::new(width);
        let outcomes = service
            .submit(batch(jobs, n, rounds))
            .expect("valid batch")
            .join();
        assert!(
            outcomes == reference,
            "width {width} fleet diverged from the serial oracle"
        );
    }

    let serial_ms = median_secs(reps, || {
        let b = batch(jobs, n, rounds);
        let start = Instant::now();
        b.run_serial().expect("valid batch");
        start.elapsed().as_secs_f64()
    }) * 1e3;
    println!(
        "\n=== service_throughput: {jobs} jobs (gossip n={n}, rounds={rounds}) on a \
         {host}-core host | serial oracle {serial_ms:.1} ms ==="
    );

    let mut rows = Vec::new();
    for width in [1usize, 4, 8] {
        let median_ms = median_secs(reps, || {
            let service = Service::new(width);
            let b = batch(jobs, n, rounds);
            let start = Instant::now();
            let outcomes = service.submit(b).expect("valid batch").join();
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(outcomes.len(), jobs);
            secs
        }) * 1e3;
        let jobs_per_sec = jobs as f64 / (median_ms / 1e3);
        println!(
            "width {width}: {median_ms:8.2} ms | {jobs_per_sec:8.1} jobs/s | {:.2}x vs width 1",
            rows.first().map_or(1.0, |r: &Row| r.median_ms / median_ms),
        );
        rows.push(Row {
            width,
            median_ms,
            jobs_per_sec,
        });
    }

    splice_json(&engine_json_path(), smoke, jobs, host, serial_ms, &rows);

    if std::env::var("BENCH_ENFORCE_SERVICE").is_ok_and(|v| v == "1") {
        let speedup = rows[0].median_ms / rows[2].median_ms;
        if host >= 4 {
            assert!(
                speedup >= 3.0,
                "width 8 speedup {speedup:.2}x < 3x over width 1 on a {host}-core host"
            );
            println!("BENCH_ENFORCE_SERVICE: width 8 is {speedup:.2}x width 1 (>= 3x)");
        } else {
            println!(
                "BENCH_ENFORCE_SERVICE: skipped scaling gate on a {host}-core host \
                 (width 8 measured {speedup:.2}x width 1)"
            );
        }
    }
}

criterion_group!(benches, bench);

fn main() {
    benches();
}

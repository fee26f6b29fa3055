//! Engine timings: APSP at n = 64 (`apsp_n64_threads1`, the id the
//! `history` rows of `BENCH_engine.json` track), and a broadcast vs the
//! same payload sent as `n - 1` unicasts. Outputs, round counts, and all
//! model-level [`RunStats`] fields of the two ways to send are
//! bit-identical (asserted below); only wall time and buffer footprint
//! differ, which is what this harness measures. The engine steps every
//! node on the calling thread, so there is no width to sweep.
//!
//! The broadcast sweep below extends the envelope from n = 64 to
//! n = 1024, the idle probe times a round with nothing on the wire
//! (n = 216 for 2192 rounds, APSP's shape at that size, with and without
//! one inbox walk per step), the floor probe times a round full of
//! one-word unicasts (n = 216 for 548 rounds, APSP's message count at
//! that size: unread, read once, or appended per source as the router
//! does), the route probe times one balanced routing of the 3D
//! multiplication's phase-1 demand set at n = 216 (the redistribution
//! APSP runs twice per squaring), split into the time outside the engine
//! and the engine's, and all four write machine-readable results to
//! `BENCH_engine.json` (see `Cargo.toml`'s bench notes). The file's
//! `history` rows and its `service_throughput` section are kept.
//!
//! Environment knobs (all optional):
//! - `BENCH_ENGINE_JSON`: output path for the JSON report (default
//!   `BENCH_engine.json`; a relative path is taken from the workspace
//!   root).
//! - `BENCH_SMOKE=1`: reduced sizes/repetitions for CI smoke runs.
//! - `BENCH_ENFORCE_BROADCAST=1`: exit non-zero if broadcast gossip is
//!   slower than the same gossip sent as `n - 1` unicasts at any size: a
//!   broadcast is stored once per sender and never expanded, so it must
//!   never cost more than the copies it stands for.

use cc_bench::{engine_json_path, SEED};
use cc_matmul::{Blocking, Semiring, TropicalSemiring};
use cc_routing::{demand_sizes, RoutePlan};
use cliquesim::{
    BitString, Engine, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, RunStats, Session, Status,
};
use criterion::{criterion_group, Criterion};
use std::path::Path;
use std::time::Instant;

/// Run seeded APSP (n = 64 takes 1044 rounds) and return the session
/// stats.
fn apsp_stats(n: usize) -> RunStats {
    let wg = cc_graph::gen::gnp_weighted(n, 0.2, 20, SEED);
    let mut s = Session::new(Engine::new(n));
    cc_paths::apsp_exact(&mut s, &wg).unwrap();
    s.stats()
}

/// `rounds` rounds of id gossip under the broadcast-only restriction: one
/// payload per sender per round, stored once — or, with `unicast`, the
/// same payload written to each of the `n - 1` others in ascending order.
struct Gossip {
    rounds: usize,
    unicast: bool,
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
        if self.unicast {
            for u in (0..ctx.n).filter(|&u| u != ctx.id.index()) {
                outbox.send_with(NodeId::from(u), |slot| slot.extend_from(&m));
            }
        } else {
            outbox.broadcast(&m);
        }
        Status::Continue
    }
}

/// One timed gossip session: `phases` engine runs against a
/// single warm arena (steady-state rounds and steady-state *phases*
/// allocate nothing). Returns (wall seconds, stats, arena footprint).
fn gossip_run(n: usize, rounds: usize, phases: usize, unicast: bool) -> (f64, RunStats, usize) {
    let mut s = Session::new(Engine::new(n).broadcast_only(true));
    let start = Instant::now();
    for _ in 0..phases {
        let programs = (0..n)
            .map(|_| Gossip {
                rounds,
                unicast,
                acc: 0,
            })
            .collect();
        s.run(programs).unwrap();
    }
    (
        start.elapsed().as_secs_f64(),
        s.stats(),
        s.delivery_footprint(),
    )
}

/// Sends nothing and halts after `rounds` rounds; with `scan`, also walks
/// its inbox once per step. With no traffic, a round costs only the
/// engine's own per-slot work: clearing rows, the row checks, the inbox
/// walk.
struct Idle {
    rounds: usize,
    scan: bool,
    heard: usize,
}

impl NodeProgram for Idle {
    type Output = usize;
    fn step(
        &mut self,
        _ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        _outbox: &mut Outbox<'_>,
    ) -> Status<usize> {
        if self.scan {
            self.heard += inbox.iter().count();
        }
        if round >= self.rounds {
            return Status::Halt(self.heard);
        }
        Status::Continue
    }
}

/// One timed idle run on the default (inline) engine: wall seconds and
/// stats.
fn idle_run(n: usize, rounds: usize, scan: bool) -> (f64, RunStats) {
    let programs: Vec<Idle> = (0..n)
        .map(|_| Idle {
            rounds,
            scan,
            heard: 0,
        })
        .collect();
    let start = Instant::now();
    let out = Engine::new(n).run(programs).unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert!(
        out.outputs.iter().all(|h| *h == 0),
        "an idle clique heard something"
    );
    (secs, out.stats)
}

struct IdleRow {
    n: usize,
    rounds: usize,
    scan: bool,
    median_ms: f64,
}

/// The idle probe, without and with the per-step inbox walk. Asserts the
/// two runs' stats equal before timing: the walk must not change the run.
fn idle_probe(n: usize, rounds: usize, reps: usize) -> Vec<IdleRow> {
    assert_eq!(idle_run(n, rounds, false).1, idle_run(n, rounds, true).1);
    [false, true]
        .into_iter()
        .map(|scan| {
            let median_ms = median_secs(reps, || idle_run(n, rounds, scan).0) * 1e3;
            println!(
                "idle n={n} rounds={rounds} inbox_scan={scan}: {median_ms:8.2} ms ({:.0} ns/round)",
                median_ms * 1e6 / rounds as f64,
            );
            IdleRow {
                n,
                rounds,
                scan,
                median_ms,
            }
        })
        .collect()
}

/// What a floor-probe node does with each message it hears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Receive {
    /// Nothing reads the messages.
    Ignore,
    /// One inbox walk reads each message's value.
    Walk,
    /// The walk appends each message to a per-source string, reserved at
    /// its final length, as the router collects its streams.
    Append,
}

/// Sends one 8-bit message to every other node each round for `rounds`
/// rounds (`send_with` + `push_uint`) and receives as `receive` says:
/// APSP's per-message work at its message count, without its local work.
/// Outputs the sum of the values read, or the bits appended.
struct Floor {
    rounds: usize,
    receive: Receive,
    sum: u64,
    collected: Vec<BitString>,
}

impl NodeProgram for Floor {
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        match self.receive {
            Receive::Ignore => {}
            Receive::Walk => {
                for (_, m) in inbox.iter() {
                    self.sum += m.as_uint();
                }
            }
            Receive::Append => {
                for (u, m) in inbox.iter() {
                    self.collected[u.index()].extend_from(m);
                }
            }
        }
        if round >= self.rounds {
            let appended: usize = self.collected.iter().map(BitString::len).sum();
            return Status::Halt(self.sum + appended as u64);
        }
        let value = (ctx.id.0 as u64 + round as u64) & 0xff;
        for u in (0..ctx.n).filter(|&u| u != ctx.id.index()) {
            outbox.send_with(NodeId::from(u), |slot| slot.push_uint(value, 8));
        }
        Status::Continue
    }
}

/// One timed floor run on the default (inline) engine: wall seconds,
/// stats and outputs. The per-source strings are reserved before the
/// clock starts.
fn floor_run(n: usize, rounds: usize, receive: Receive) -> (f64, RunStats, Vec<u64>) {
    let programs: Vec<Floor> = (0..n)
        .map(|_| Floor {
            rounds,
            receive,
            sum: 0,
            collected: match receive {
                Receive::Append => (0..n)
                    .map(|_| BitString::with_capacity(8 * rounds))
                    .collect(),
                _ => Vec::new(),
            },
        })
        .collect();
    let start = Instant::now();
    let out = Engine::new(n).run(programs).unwrap();
    (start.elapsed().as_secs_f64(), out.stats, out.outputs)
}

struct FloorRow {
    n: usize,
    rounds: usize,
    receive: Receive,
    median_ms: f64,
}

/// The floor probe over the three ways to receive. Asserts identical
/// stats across them, and outputs that count every message, before
/// timing: the receiver's work must not change the run.
fn floor_probe(n: usize, rounds: usize, reps: usize) -> Vec<FloorRow> {
    let receives = [Receive::Ignore, Receive::Walk, Receive::Append];
    let runs = receives.map(|receive| floor_run(n, rounds, receive));
    for (receive, run) in receives.iter().zip(&runs) {
        assert_eq!(
            run.1, runs[0].1,
            "floor {receive:?}: receiving changed the stats"
        );
    }
    let heard = (8 * rounds * (n - 1)) as u64;
    assert!(
        runs[2].2.iter().all(|&bits| bits == heard),
        "a per-source append lost bits"
    );
    receives
        .into_iter()
        .map(|receive| {
            let median_ms = median_secs(reps, || floor_run(n, rounds, receive).0) * 1e3;
            println!(
                "floor n={n} rounds={rounds} receive={receive:?}: {median_ms:8.2} ms \
                 ({:.1} ns/message)",
                median_ms * 1e6 / (rounds * n * (n - 1)) as f64,
            );
            FloorRow {
                n,
                rounds,
                receive,
                median_ms,
            }
        })
        .collect()
}

type Demands = Vec<Vec<(NodeId, BitString)>>;

/// `mm_three_d`'s phase-1 demand set at `n`, over the tropical semiring
/// APSP uses on `gnp_weighted(n, 0.2, 20, _)`: node `u` sends its A-row
/// chunk over band `k` to every worker `(band(u), j, k)`, then its B-row
/// chunk over band `j` to every worker `(i, j, band(u))`, never to itself.
/// Entries are a fixed pattern: routing time depends on sizes, not values.
fn mm_phase1_demands(n: usize) -> Demands {
    let bl = Blocking::for_n(n);
    let sr = TropicalSemiring::for_max_value(20 * (n as u64 - 1));
    let chunk = |u: usize, cols: std::ops::Range<usize>| {
        let mut bits = BitString::new();
        for c in cols {
            sr.encode(((u * 31 + c * 17) % 4001) as u64, &mut bits);
        }
        bits
    };
    (0..n)
        .map(|u| {
            let bu = bl.band(u);
            let t = bl.t;
            let a =
                (0..t * t).map(|jk| (bl.worker(bu, jk / t, jk % t), chunk(u, bl.members(jk % t))));
            let b =
                (0..t * t).map(|ij| (bl.worker(ij / t, ij % t, bu), chunk(u, bl.members(ij % t))));
            a.chain(b)
                .filter(|&(w, _)| w != u)
                .map(|(w, payload)| (NodeId::from(w), payload))
                .collect()
        })
        .collect()
}

/// One timed balanced routing of `demands`: wall seconds and stats.
fn route_run(demands: Demands) -> (f64, RunStats) {
    let mut s = Session::new(Engine::new(demands.len()));
    let start = Instant::now();
    RoutePlan::balanced().run(&mut s, demands).unwrap();
    (start.elapsed().as_secs_f64(), s.stats())
}

struct RouteRow {
    n: usize,
    rounds: usize,
    messages: u64,
    outside_ms: f64,
    engine_ms: f64,
}

/// The route probe: `RoutePlan::balanced()` on the phase-1 demand set at
/// `n`, `reps` times. Asserts the run's stats equal the plan's price
/// before timing, then reports the median time outside the engine
/// (encoding, scatter, slice, reassembly, decoding, the router programs'
/// set-up) and the median engine time apart.
fn route_probe(n: usize, reps: usize) -> RouteRow {
    let demands = mm_phase1_demands(n);
    let (_, stats) = route_run(demands.clone());
    let price = RoutePlan::balanced().cost(&demand_sizes(&demands), BitString::width_for(n));
    assert_eq!(
        stats, price,
        "route n={n}: the run's stats differ from its price"
    );
    let mut outside = Vec::with_capacity(reps);
    let mut engine = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (secs, stats) = route_run(demands.clone());
        let engine_s = stats.timing.total_ns() as f64 / 1e9;
        outside.push(secs - engine_s);
        engine.push(engine_s);
    }
    let (outside_ms, engine_ms) = (median(outside) * 1e3, median(engine) * 1e3);
    println!(
        "route n={n} balanced mm phase 1: rounds={} messages={} | outside the engine {outside_ms:8.2} ms, \
         engine {engine_ms:8.2} ms",
        stats.rounds, stats.messages,
    );
    RouteRow {
        n,
        rounds: stats.rounds,
        messages: stats.messages,
        outside_ms,
        engine_ms,
    }
}

/// Median wall seconds of `reps` repetitions of `f` (first call doubles
/// as warm-up and is kept — the arena makes later phases the steady state
/// we care about anyway).
fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median((0..reps).map(|_| f()).collect())
}

/// The median of `samples` (the upper one of an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct SweepRow {
    n: usize,
    rounds: usize,
    broadcast_ms: f64,
    unicast_ms: f64,
    broadcast_slots: usize,
    unicast_slots: usize,
}

/// Broadcast-vs-unicast gossip sweep. Asserts bit-identical stats between
/// the two ways to send, and a broadcast footprint of exactly one slot
/// per sender per buffer, at every size before recording a single number.
fn broadcast_sweep(sizes: &[usize], rounds: usize, phases: usize, reps: usize) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let (_, broadcast_stats, broadcast_slots) = gossip_run(n, rounds, phases, false);
        let (_, unicast_stats, unicast_slots) = gossip_run(n, rounds, phases, true);
        assert_eq!(
            broadcast_stats, unicast_stats,
            "gossip n={n}: broadcasting changed model-level stats"
        );
        assert_eq!(
            broadcast_slots,
            2 * n,
            "gossip n={n}: a broadcast round must park one slot per sender per buffer"
        );
        let broadcast_ms = median_secs(reps, || gossip_run(n, rounds, phases, false).0) * 1e3;
        let unicast_ms = median_secs(reps, || gossip_run(n, rounds, phases, true).0) * 1e3;
        println!(
            "gossip n={n:<5} rounds={rounds} phases={phases}: broadcast {broadcast_ms:8.2} ms \
             ({broadcast_slots:>6} slots) | unicast {unicast_ms:8.2} ms ({unicast_slots:>8} slots) \
             | {:.2}x time, {:.0}x footprint",
            unicast_ms / broadcast_ms,
            unicast_slots as f64 / broadcast_slots as f64,
        );
        rows.push(SweepRow {
            n,
            rounds,
            broadcast_ms,
            unicast_ms,
            broadcast_slots,
            unicast_slots,
        });
    }
    rows
}

/// Hand-rolled JSON (the vendored criterion stand-in has no machine
/// output; this file is the recorded trajectory CI and EXPERIMENTS.md
/// consume). Rewrites the `broadcast_sweep`, `idle`, `floor` and `route`
/// sections and keeps what the target file already holds: its `history`
/// rows, recorded by hand from before/after runs, and the
/// `service_throughput` section that bench splices in last.
fn write_json(
    path: &Path,
    smoke: bool,
    rows: &[SweepRow],
    idle: &[IdleRow],
    floor: &[FloorRow],
    route: &RouteRow,
) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    // The file is written in this fixed layout: rows are indented four
    // spaces, so the first line-leading `  ]` closes the history.
    let history = existing
        .split_once("\"history\": [")
        .and_then(|(_, rest)| rest.split_once("\n  ]"))
        .map_or("", |(rows, _)| rows);
    let service = existing
        .find(",\n  \"service_throughput\"")
        .map(|i| existing[i..].trim_end().trim_end_matches('}').trim_end());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_parallel\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"history\": [{history}\n  ],\n"));
    out.push_str("  \"broadcast_sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"broadcast_median_ms\": {:.3}, \
             \"unicast_median_ms\": {:.3}, \"broadcast_arena_slots\": {}, \"unicast_arena_slots\": {}}}{}\n",
            r.n,
            r.rounds,
            r.broadcast_ms,
            r.unicast_ms,
            r.broadcast_slots,
            r.unicast_slots,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"idle\": [\n");
    for (i, r) in idle.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"inbox_scan\": {}, \"median_ms\": {:.3}}}{}\n",
            r.n,
            r.rounds,
            r.scan,
            r.median_ms,
            if i + 1 < idle.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"floor\": [\n");
    for (i, r) in floor.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"receive\": \"{:?}\", \"median_ms\": {:.3}}}{}\n",
            r.n,
            r.rounds,
            r.receive,
            r.median_ms,
            if i + 1 < floor.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"route\": [\n    {{\"n\": {}, \"plan\": \"balanced\", \"demands\": \"mm_three_d phase 1\", \
         \"rounds\": {}, \"messages\": {}, \"outside_engine_median_ms\": {:.3}, \"engine_median_ms\": {:.3}}}\n  ]",
        route.n, route.rounds, route.messages, route.outside_ms, route.engine_ms,
    ));
    out.push_str(service.unwrap_or(""));
    out.push_str("\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let n = if smoke { 16 } else { 64 };
    let seq = apsp_stats(n);
    println!(
        "\n=== engine ablation: APSP n={n} | rounds={} messages={} bits={} \
         undelivered={} peak_live={}B | step={:.1}ms delivery={:.1}ms ===",
        seq.rounds,
        seq.messages,
        seq.bits,
        seq.undelivered_messages,
        seq.peak_live_payload_bytes,
        seq.timing.step_ns as f64 / 1e6,
        seq.timing.delivery_ns as f64 / 1e6,
    );

    if !smoke {
        let mut group = c.benchmark_group("engine");
        group.sample_size(10);
        group.bench_function("apsp_n64_threads1", |b| {
            b.iter(|| apsp_stats(64).rounds);
        });
        group.finish();
    }

    // Broadcast-vs-unicast gossip sweep, n = 64 … 1024 (reduced under
    // BENCH_SMOKE so the CI job stays in seconds).
    let (sizes, rounds, phases, reps): (&[usize], usize, usize, usize) = if smoke {
        (&[64, 256], 4, 2, 3)
    } else {
        (&[64, 256, 1024], 8, 3, 5)
    };
    let rows = broadcast_sweep(sizes, rounds, phases, reps);

    // The idle probe at APSP's n = 216 shape (fewer rounds under
    // BENCH_SMOKE).
    let idle = idle_probe(216, if smoke { 200 } else { 2192 }, reps);

    // The floor probe at APSP's n = 216 message count (fewer rounds under
    // BENCH_SMOKE; 8-bit messages need n > 128 at the model's bandwidth).
    let floor = floor_probe(216, if smoke { 20 } else { 548 }, reps);

    // One balanced routing of the 3D multiplication's phase-1 demand set
    // at n = 216 (fewer reps under BENCH_SMOKE).
    let route = route_probe(216, reps);

    write_json(&engine_json_path(), smoke, &rows, &idle, &floor, &route);

    if std::env::var("BENCH_ENFORCE_BROADCAST").is_ok_and(|v| v == "1") {
        for r in &rows {
            assert!(
                r.broadcast_ms <= r.unicast_ms,
                "broadcast gossip slower than the same gossip as n - 1 unicasts: \
                 n={} broadcast {:.2} ms vs unicast {:.2} ms",
                r.n,
                r.broadcast_ms,
                r.unicast_ms
            );
        }
        println!("BENCH_ENFORCE_BROADCAST: broadcast <= unicast at every size");
    }
}

criterion_group!(benches, bench);

fn main() {
    benches();
}

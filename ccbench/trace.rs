//! Spans recorded from the benchmark's own files around each call into a
//! layer's public API, and the per-layer metrics derived from them.
//!
//! A rep has one root span (`rep`, the timed region). Its children are
//! the calls the workload makes — or, on the fleet, the `Service.submit`
//! and `BatchHandle.join` calls, with one span per job recorded inside
//! the benchmark-owned job closure on the worker thread that ran it.
//! Spans that wrap a session carry its [`Cost`]: the `RunStats` of that
//! session (including `EngineTiming`), its phase count and its arena
//! footprint.

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use congested_clique::prelude::{RunStats, Session};

use crate::stats::{median, self_time};

/// What one session cost the engine.
#[derive(Clone, Debug)]
pub struct Cost {
    pub stats: RunStats,
    pub phases: usize,
    pub arena_slots: usize,
}

impl Cost {
    pub fn of(session: &Session) -> Cost {
        Cost {
            stats: session.stats(),
            phases: session.phases(),
            arena_slots: session.delivery_footprint(),
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub rep: u32,
    pub thread: u32,
    pub name: String,
    /// Clique size the call ran at, where there is one.
    pub n: Option<usize>,
    pub start: Instant,
    pub end: Instant,
    pub cost: Option<Cost>,
}

/// The span sink shared by the benchmark and its fleet job closures. When
/// disabled, recording does nothing.
pub struct Trace {
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, so children can name a parent recorded later.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span sink lock").push(span);
        }
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink lock").clone()
    }
}

/// A small per-thread number for span records (`ThreadId` has no stable
/// integer form).
pub fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// Per-layer metrics of one traced rep, as `(name, value)` pairs. `width`
/// is how many executors ran the rep's jobs (1 outside the fleet).
pub fn layer_metrics(spans: &[Span], rep: u32, width: usize) -> Vec<(&'static str, f64)> {
    let mine: Vec<&Span> = spans.iter().filter(|s| s.rep == rep).collect();
    let Some(root) = mine.iter().find(|s| s.parent.is_none()) else {
        return Vec::new();
    };
    let t0 = root.start;
    let at = |i: Instant| i.saturating_duration_since(t0).as_secs_f64();
    // Jobs: every span that carries a session's cost — the calls of a
    // serial workload, the job closures of the fleet.
    let jobs: Vec<(&Span, &Cost)> = mine
        .iter()
        .filter_map(|s| s.cost.as_ref().map(|c| (*s, c)))
        .collect();
    let interval = |s: &Span| (at(s.start), at(s.end));
    let walls: Vec<f64> = jobs.iter().map(|(s, _)| at(s.end) - at(s.start)).collect();
    let waits: Vec<f64> = jobs.iter().map(|(s, _)| at(s.start)).collect();
    let sum = |f: &dyn Fn(&RunStats) -> u64| jobs.iter().map(|(_, c)| f(&c.stats)).sum::<u64>();
    let ns = |x: u64| x as f64 * 1e-9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let engine = ns(sum(&|s| s.timing.total_ns()));
    let busy: f64 = walls.iter().sum();
    let outside = busy - engine;
    let makespan = at(root.end);
    let rounds = sum(&|s| s.rounds as u64) as f64;
    let messages = sum(&|s| s.messages) as f64;
    let signed = sum(&|s| s.signed_messages) as f64;
    let rejected = sum(&|s| s.rejected_tags) as f64;
    let gap = self_time(
        (0.0, makespan),
        &jobs.iter().map(|(s, _)| interval(s)).collect::<Vec<_>>(),
    );
    vec![
        ("cliquesim.engine_s", engine),
        ("cliquesim.step_s", ns(sum(&|s| s.timing.step_ns))),
        ("cliquesim.delivery_s", ns(sum(&|s| s.timing.delivery_ns))),
        ("cliquesim.outside_engine_s", outside),
        ("cliquesim.outside_engine_frac", ratio(outside, busy)),
        ("cliquesim.rounds_per_engine_s", ratio(rounds, engine)),
        (
            "cliquesim.phases",
            jobs.iter().map(|(_, c)| c.phases).sum::<usize>() as f64,
        ),
        (
            "cliquesim.arena_slots",
            jobs.iter().map(|(_, c)| c.arena_slots).max().unwrap_or(0) as f64,
        ),
        (
            "cliquesim.peak_live_bytes",
            jobs.iter()
                .map(|(_, c)| c.stats.peak_live_payload_bytes)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "cliquesim.undelivered_frac",
            ratio(sum(&|s| s.undelivered_messages) as f64, messages),
        ),
        (
            "cliquesim.forged_messages",
            sum(&|s| s.forged_messages) as f64,
        ),
        (
            "cliquesim.silenced_messages",
            sum(&|s| s.silenced_messages) as f64,
        ),
        ("cliquesim.signed_messages", signed),
        ("cliquesim.rejected_tags", rejected),
        ("cliquesim.rejected_frac", ratio(rejected, signed)),
        (
            "cliquesim.rejoined_nodes",
            sum(&|s| s.rejoined_nodes) as f64,
        ),
        ("cliquesim.sync_rounds", sum(&|s| s.sync_rounds) as f64),
        ("cliquesim.sync_messages", sum(&|s| s.sync_messages) as f64),
        ("jobs.count", jobs.len() as f64),
        ("jobs.width", width as f64),
        ("jobs.makespan_s", makespan),
        ("jobs.busy_s", busy),
        ("jobs.parallelism", ratio(busy, makespan)),
        ("jobs.idle_frac", 1.0 - ratio(busy, makespan * width as f64)),
        ("jobs.gap_s", gap),
        ("jobs.queue_wait_p50_s", median(&waits)),
        (
            "jobs.queue_wait_max_s",
            waits.iter().copied().fold(0.0, f64::max),
        ),
        ("jobs.wall_p50_s", median(&walls)),
        ("jobs.wall_max_s", walls.iter().copied().fold(0.0, f64::max)),
        ("bench.spans", mine.len() as f64),
    ]
}

/// One `# call` line per span name in `rep`: how often it ran, its total
/// time, and how much of that the engine accounts for. This is the
/// per-crate breakdown (APSP, each matmul path, each resilient protocol,
/// each atlas problem) that the layer-wide metrics sum over.
pub fn call_summary(spans: &[Span], rep: u32) -> Vec<String> {
    let mut names: Vec<&str> = Vec::new();
    for s in spans.iter().filter(|s| s.rep == rep && s.parent.is_some()) {
        if !names.contains(&s.name.as_str()) {
            names.push(&s.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let of: Vec<&Span> = spans
                .iter()
                .filter(|s| s.rep == rep && s.name == name)
                .collect();
            let total: f64 = of.iter().map(|s| (s.end - s.start).as_secs_f64()).sum();
            let costs: Vec<&Cost> = of.iter().filter_map(|s| s.cost.as_ref()).collect();
            let mut line = format!("# call {name} count={} total_s={total:.6}", of.len());
            if !costs.is_empty() {
                let engine: f64 = costs
                    .iter()
                    .map(|c| c.stats.timing.total_ns() as f64 * 1e-9)
                    .sum();
                line += &format!(
                    " engine_s={engine:.6} outside_engine_s={:.6}",
                    total - engine
                );
            }
            line
        })
        .collect()
}

/// Write `spans` as JSON lines, times in nanoseconds since `epoch`.
pub fn write_spans(path: &str, spans: &[Span], epoch: Instant) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let ns = |i: Instant| i.saturating_duration_since(epoch).as_nanos();
    for s in spans {
        write!(
            out,
            "{{\"rep\":{},\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"n\":{},\"start_ns\":{},\"end_ns\":{}",
            s.rep,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            s.name,
            s.n.map_or("null".to_string(), |n| n.to_string()),
            ns(s.start),
            ns(s.end),
        )?;
        if let Some(c) = &s.cost {
            let st = &c.stats;
            write!(
                out,
                ",\"engine_ns\":{},\"step_ns\":{},\"delivery_ns\":{},\"rounds\":{},\"messages\":{},\"bits\":{},\"phases\":{},\"arena_slots\":{}",
                st.timing.total_ns(),
                st.timing.step_ns,
                st.timing.delivery_ns,
                st.rounds,
                st.messages,
                st.bits,
                c.phases,
                c.arena_slots,
            )?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

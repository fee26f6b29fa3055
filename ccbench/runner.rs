//! The measurement loop shared by every workload: one judged warm-up rep
//! on the workload's reference instance, then timed reps on the seeded
//! instance back to back (one client, closed loop) until the time budget
//! is spent. The first timed rep is judged; every later one must
//! reproduce it before its time counts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use congested_clique::prelude::{RunStats, Session};

use crate::stats::{median, quartiles, tail_percentile};
use crate::trace::{call_summary, layer_metrics, thread_number, Cost, Span, Trace};

/// Timed reps every run makes, whatever the budget: enough for a median,
/// and in a traced run at least one traced and one untraced rep.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 10_000;
const SETUP_SAMPLES: usize = 5;

/// The seed of every workload's reference instance, whose simulated
/// `rounds` and `bits` are reported: they are then the same on every run
/// of one build, whatever `--seed` is, so any change in them is a change
/// in the modelled cost and never a change of input.
pub const REFERENCE_SEED: u64 = 0;

/// One operation of a rep — a library call or a fleet job.
#[derive(Clone, Debug)]
pub struct Op {
    pub name: String,
    /// The session's statistics; `None` when the operation failed.
    pub stats: Option<RunStats>,
    /// Hash of the operation's output.
    pub digest: u64,
}

/// What one rep produced.
pub struct Rep {
    /// Wall time of the timed region: the calls into the system, nothing
    /// the benchmark does before or after them.
    pub wall: Duration,
    pub ops: Vec<Op>,
    /// `(op index, reason)` for every judge that failed (judged reps only).
    pub judge_failures: Vec<(usize, String)>,
}

/// Where a rep records its spans.
#[derive(Clone)]
pub struct Ctx {
    pub trace: Arc<Trace>,
    pub rep: u32,
}

impl Ctx {
    /// Record a span when tracing; a span that wraps a session carries
    /// that session's cost.
    pub fn span(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        (start, end): (Instant, Instant),
        session: Option<&Session>,
    ) {
        if self.trace.enabled() {
            self.trace.record(Span {
                id,
                parent,
                rep: self.rep,
                thread: thread_number(),
                name: name.to_string(),
                n: session.map(Session::n),
                start,
                end,
                cost: session.map(Cost::of),
            });
        }
    }
}

/// A workload: inputs built from its seed, and one rep over them.
pub trait Workload {
    type Input;
    /// How many executors run a rep's operations.
    fn width(&self) -> usize {
        1
    }
    /// Build one rep's inputs, plans, keyrings and sessions (`setup_s`).
    fn setup(&self) -> Self::Input;
    /// Run one rep; with `judge`, check every output against its oracle.
    fn run(&self, input: Self::Input, ctx: &Ctx, judge: bool) -> Rep;
}

/// One timed library call on its own session.
pub struct Call<T> {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub out: Result<T, String>,
    pub session: Session,
}

/// Time `f` on `session`. A panic inside the library counts as a failed
/// operation rather than ending the benchmark.
pub fn call<T>(
    name: &'static str,
    mut session: Session,
    f: impl FnOnce(&mut Session) -> Result<T, String>,
) -> Call<T> {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| f(&mut session)))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(&*p))));
    let end = Instant::now();
    Call {
        name,
        start,
        end,
        out,
        session,
    }
}

impl<T> Call<T> {
    /// Record this call's span under `parent` and turn it into an [`Op`]
    /// whose digest `digest` computes from the output.
    pub fn finish(&self, ctx: &Ctx, parent: u64, digest: impl FnOnce(&T) -> u64) -> Op {
        let id = ctx.trace.id();
        ctx.span(
            id,
            Some(parent),
            self.name,
            (self.start, self.end),
            Some(&self.session),
        );
        match &self.out {
            Ok(out) => Op {
                name: self.name.to_string(),
                stats: Some(self.session.stats()),
                digest: digest(out),
            },
            Err(e) => {
                eprintln!("ccbench: {} failed: {e}", self.name);
                Op {
                    name: self.name.to_string(),
                    stats: None,
                    digest: 0,
                }
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// FNV-1a over 64-bit words: a cheap fingerprint of an output, compared
/// between reps.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// A sub-seed for input `salt` of a run seeded with `seed` (SplitMix64),
/// so each generated input has its own stream.
pub fn seed_for(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Human-readable `# ...` lines: sample counts, spreads, call breakdown.
    pub info: Vec<String>,
    pub spans: Vec<Span>,
}

/// Run `w` for about `seconds` of timed reps. `reference` is the same
/// workload built from [`REFERENCE_SEED`]: its rep is the untimed warm-up,
/// it is judged, and it supplies `rounds` and `bits`. The first timed rep
/// is judged too, and every later rep must reproduce its `RunStats` and
/// outputs before its time counts. With `trace`, every second timed rep
/// is traced: end-to-end numbers come from the untraced reps, per-layer
/// numbers from the traced rep of median wall time.
pub fn measure<W: Workload>(w: &W, reference: &W, seconds: f64, trace: bool) -> Outcome {
    let untraced = Arc::new(Trace::new(false));
    let traced = Arc::new(Trace::new(trace));
    let mut setups = Vec::new();

    // Set-up is cheap next to a rep, so each rep sets up several times
    // (keeping the last input) to give `setup_s` a steady median.
    let setup = |setups: &mut Vec<f64>| {
        let mut input = None;
        for _ in 0..SETUP_SAMPLES {
            drop(input.take());
            let t = Instant::now();
            input = Some(w.setup());
            setups.push(t.elapsed().as_secs_f64());
        }
        input.expect("at least one set-up sample")
    };

    let ctx = Ctx {
        trace: Arc::clone(&untraced),
        rep: 0,
    };
    let warm = reference.run(reference.setup(), &ctx, true);
    // Peak memory of the set-up and one full rep. It is read here, not at
    // the end of the run: on the fleet, each rep's fresh worker threads
    // reuse other threads' malloc arenas, and what those keep differs run
    // to run, so the end-of-run peak (printed in a `# memory` line) moves
    // by a third between identical runs.
    let peak_rss = peak_rss_mb();
    let mut attempted = warm.ops.len() as u64;
    let mut failed = judged_failures(&warm);

    let mut walls = Vec::new();
    let mut traced_walls: Vec<(f64, u32)> = Vec::new();
    let mut first: Option<Rep> = None;
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let timed_start = Instant::now();
    let mut rep = 1u32;
    while rep as usize <= MAX_REPS {
        let done = rep as usize - 1;
        if done >= MIN_REPS {
            let per_rep = timed_start.elapsed() / done as u32;
            if timed_start.elapsed() + per_rep > budget {
                break;
            }
        }
        let tracing = trace && rep.is_multiple_of(2);
        let input = setup(&mut setups);
        let ctx = Ctx {
            trace: Arc::clone(if tracing { &traced } else { &untraced }),
            rep,
        };
        let r = w.run(input, &ctx, first.is_none());
        attempted += r.ops.len() as u64;
        let bad = match &first {
            None => judged_failures(&r),
            Some(first) => {
                let drifted = drifted(&r, first);
                if drifted > 0 {
                    eprintln!("ccbench: rep {rep}: {drifted} operation(s) drifted from rep 1");
                }
                drifted
            }
        };
        failed += bad;
        // A rep that failed or did not reproduce rep 1 has no time to count.
        let wall = r.wall.as_secs_f64();
        if bad == 0 && tracing {
            traced_walls.push((wall, rep));
        } else if bad == 0 {
            walls.push(wall);
        }
        first.get_or_insert(r);
        rep += 1;
    }
    let first = first.expect("at least one timed rep");

    let (rounds, bits) = cost(&warm);
    let (seeded_rounds, seeded_bits) = cost(&first);
    let end_to_end = vec![
        ("wall_s", median(&walls)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss),
        ("rounds", rounds as f64),
        ("bits", bits as f64),
    ];
    let mut info = vec![
        describe("wall_s", &walls),
        describe("setup_s", &setups),
        format!(
            "# operations per rep={} timed reps={}",
            first.ops.len(),
            rep - 1
        ),
        format!(
            "# memory peak_rss_mb after the warm-up={peak_rss:.3}, at the end of the run={:.3} \
             (VmHWM={:.3} MB)",
            peak_rss_mb(),
            status_mb("VmHWM")
        ),
        format!(
            "# cost reference instance (seed {REFERENCE_SEED}) rounds={rounds} bits={bits}; \
             this seed's instance rounds={seeded_rounds} bits={seeded_bits}"
        ),
    ];

    let spans = traced.spans();
    let mut per_layer = Vec::new();
    traced_walls.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let Some(&(_, chosen)) = traced_walls.get(traced_walls.len() / 2) {
        per_layer = layer_metrics(&spans, chosen, w.width());
        let tw: Vec<f64> = traced_walls.iter().map(|t| t.0).collect();
        let overhead = median(&tw) / median(&walls) - 1.0;
        per_layer.push(("bench.trace_overhead_frac", overhead));
        info.push(format!("# per-layer metrics from traced rep {chosen}"));
        info.extend(call_summary(&spans, chosen));
    }
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        info,
        spans,
    }
}

/// How many of a judged rep's operations failed: a library error, or an
/// output its judge rejected.
fn judged_failures(rep: &Rep) -> u64 {
    let mut bad: Vec<bool> = rep.ops.iter().map(|o| o.stats.is_none()).collect();
    for (i, why) in &rep.judge_failures {
        eprintln!("ccbench: judge failed on {}: {why}", rep.ops[*i].name);
        bad[*i] = true;
    }
    bad.iter().filter(|b| **b).count() as u64
}

/// How many of `rep`'s operations failed or differ from `first`'s, in
/// `RunStats` or output.
fn drifted(rep: &Rep, first: &Rep) -> u64 {
    if rep.ops.len() != first.ops.len() {
        return rep.ops.len() as u64;
    }
    rep.ops
        .iter()
        .zip(&first.ops)
        .filter(|(a, b)| a.stats.is_none() || a.stats != b.stats || a.digest != b.digest)
        .count() as u64
}

/// Simulated rounds and payload bits summed over a rep's operations.
fn cost(rep: &Rep) -> (u64, u64) {
    rep.ops
        .iter()
        .filter_map(|o| o.stats.as_ref())
        .fold((0, 0), |(r, b), s| (r + s.rounds as u64, b + s.bits))
}

fn describe(name: &str, samples: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(samples);
    let tail = tail_percentile(samples)
        .map_or("none (fewer than 20 samples)".to_string(), |(p, v)| {
            format!("p{p}={v:.6}")
        });
    let all: Vec<String> = samples.iter().map(|s| format!("{s:.6}")).collect();
    format!(
        "# {name} samples={} median={q2:.6} q1={q1:.6} q3={q3:.6} tail={tail} all=[{}]",
        samples.len(),
        all.join(" ")
    )
}

/// The process's peak resident set (`VmHWM`) less its file-backed and
/// shared pages, in MB: the peak of the memory the program allocated.
/// File pages are left out because how many of the binary's own pages
/// are resident depends on where the loader placed them (±0.4 MB between
/// identical runs). They are read now, not at the peak. Code pages are
/// faulted in as paths first run and dropped only under memory pressure,
/// so after a full rep the count at the peak and now agree closely.
/// 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM") - status_mb("RssFile") - status_mb("RssShmem")
}

/// A `kB` field of `/proc/self/status`, in MB; 0 if it cannot be read.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

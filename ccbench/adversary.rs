//! `adversary-256`: three resilient protocols under seeded adversaries, at
//! n ∈ {128, 256} and three plan seeds each —
//! authenticated Dolev–Strong at f = ⌈n/2⌉−1 (garble, silence, forge),
//! Bracha at f = ⌊(n−1)/3⌋ (garble, replay, silence), and 65 rounds of
//! `max_gossip` under random crash/rejoin churn plus 1 % message drops.
//!
//! Why: sign, verify, rewrite, link-fault and churn-sync passes dominate
//! here, with no routing or matmul — the adversary layer's workload.

use std::time::Instant;

use congested_clique::prelude::{
    AuthKeyring, BitString, ByzantinePlan, Engine, FaultPlan, NodeId, RunStats, Session,
};
use congested_clique::resilient::{
    bracha_broadcast, bracha_overhead, dolev_strong_broadcast, dolev_strong_overhead, max_gossip,
};
use congested_clique::sim::{sync_overhead, ByzantineOutcome, FaultedOutcome, TAG_BITS};

use crate::runner::{call, digest, seed_for, Call, Ctx, Op, Rep, Workload};

/// Broadcast value width (Dolev–Strong and Bracha).
const WIDTH: usize = 8;
/// Gossiped value width, which is also the sync-price width.
const GOSSIP_WIDTH: usize = 16;
const GOSSIP_ROUNDS: usize = 65;
const CHURN_HORIZON: usize = 64;

pub struct Adversary {
    pub sizes: Vec<usize>,
    pub plan_seeds: Vec<u64>,
    pub seed: u64,
}

enum Cell {
    DolevStrong {
        f: usize,
        value: u64,
        plan: ByzantinePlan,
    },
    Bracha {
        f: usize,
        value: u64,
        plan: ByzantinePlan,
    },
    Churn {
        values: Vec<u64>,
        plan: FaultPlan,
    },
}

pub struct Input {
    cells: Vec<(Cell, Session)>,
}

enum Done {
    Broadcast(Call<ByzantineOutcome<Option<u64>>>),
    Gossip(Call<FaultedOutcome<u64>>),
}

const SOURCE: NodeId = NodeId(0);

impl Workload for Adversary {
    type Input = Input;

    fn setup(&self) -> Input {
        let mut cells = Vec::new();
        for &n in &self.sizes {
            for &ps in &self.plan_seeds {
                let s = seed_for(self.seed, ps * 1000 + n as u64);
                let value = s & ((1 << WIDTH) - 1);
                let f = n.div_ceil(2) - 1;
                let plan = ByzantinePlan::new(seed_for(s, 1))
                    .with_random_traitors(n, f, &[SOURCE])
                    .garble(1.0)
                    .silence(0.2)
                    .forge(0.2);
                let bandwidth = WIDTH + (f + 1) * (BitString::width_for(n) + TAG_BITS);
                let engine = Engine::new(n)
                    .with_auth(AuthKeyring::from_seed(n, seed_for(s, 2)))
                    .with_bandwidth(bandwidth)
                    .with_byzantine_plan(plan.clone());
                cells.push((Cell::DolevStrong { f, value, plan }, Session::new(engine)));

                let f = (n - 1) / 3;
                let plan = ByzantinePlan::new(seed_for(s, 3))
                    .with_random_traitors(n, f, &[SOURCE])
                    .garble(1.0)
                    .replay(0.4)
                    .silence(0.2);
                let engine = Engine::new(n)
                    .with_bandwidth(WIDTH + 2)
                    .with_byzantine_plan(plan.clone());
                cells.push((Cell::Bracha { f, value, plan }, Session::new(engine)));

                let plan = FaultPlan::new(seed_for(s, 4))
                    .with_random_churn(n, 20, 200, CHURN_HORIZON, &[SOURCE])
                    .drop_messages(0.01);
                let values = (0..n as u64)
                    .map(|v| seed_for(s, 100 + v) & ((1 << GOSSIP_WIDTH) - 1))
                    .collect();
                let engine = Engine::new(n)
                    .with_bandwidth(GOSSIP_WIDTH)
                    .with_fault_plan(plan.clone());
                cells.push((Cell::Churn { values, plan }, Session::new(engine)));
            }
        }
        Input { cells }
    }

    fn run(&self, input: Input, ctx: &Ctx, judge: bool) -> Rep {
        let root = ctx.trace.id();
        let start = Instant::now();
        let done: Vec<(Cell, Done)> = input
            .cells
            .into_iter()
            .map(|(cell, session)| {
                let d = match &cell {
                    Cell::DolevStrong { f, value, .. } => {
                        Done::Broadcast(call("cc_resilient.dolev_strong_broadcast", session, |s| {
                            dolev_strong_broadcast(s, SOURCE, *value, WIDTH, *f)
                                .map_err(|e| e.to_string())
                        }))
                    }
                    Cell::Bracha { f, value, .. } => {
                        Done::Broadcast(call("cc_resilient.bracha_broadcast", session, |s| {
                            bracha_broadcast(s, SOURCE, *value, WIDTH, *f)
                                .map_err(|e| e.to_string())
                        }))
                    }
                    Cell::Churn { values, .. } => {
                        Done::Gossip(call("cc_resilient.max_gossip", session, |s| {
                            max_gossip(s, values, GOSSIP_WIDTH, GOSSIP_ROUNDS)
                                .map_err(|e| e.to_string())
                        }))
                    }
                };
                (cell, d)
            })
            .collect();
        let end = Instant::now();
        ctx.span(root, None, "rep", (start, end), None);

        let slot = |o: &Option<Option<u64>>| o.map_or(u64::MAX, |v| v.unwrap_or(u64::MAX - 1));
        let mut ops: Vec<Op> = Vec::new();
        let mut judge_failures = Vec::new();
        let broadcast = |c: &Call<ByzantineOutcome<Option<u64>>>, value, plan, ledger| {
            let why = c.out.as_ref().ok().filter(|_| judge);
            (
                c.finish(ctx, root, |o| digest(o.outputs.iter().map(slot))),
                why.and_then(|o| judge_broadcast(value, plan, &ledger, o)),
            )
        };
        for (i, (cell, d)) in done.iter().enumerate() {
            let ((op, why), n) = match (cell, d) {
                (Cell::DolevStrong { f, value, plan }, Done::Broadcast(c)) => {
                    let n = c.session.n();
                    (
                        broadcast(c, *value, plan, dolev_strong_overhead(n, *f, WIDTH)),
                        n,
                    )
                }
                (Cell::Bracha { f, value, plan }, Done::Broadcast(c)) => {
                    let n = c.session.n();
                    (broadcast(c, *value, plan, bracha_overhead(n, *f, WIDTH)), n)
                }
                (Cell::Churn { values, plan }, Done::Gossip(c)) => {
                    let n = c.session.n();
                    let why = c.out.as_ref().ok().filter(|_| judge);
                    let op = c.finish(ctx, root, |o| {
                        digest(o.outputs.iter().map(|v| v.unwrap_or(u64::MAX)))
                    });
                    ((op, why.and_then(|o| judge_gossip(values, plan, n, o))), n)
                }
                _ => unreachable!("each cell ran its own protocol"),
            };
            if let Some(why) = why {
                judge_failures.push((i, format!("{} n={n}: {why}", op.name)));
            }
            ops.push(op);
        }
        Rep {
            wall: end - start,
            ops,
            judge_failures,
        }
    }
}

/// Honest agreement on the source's value, the fixed round schedule, and
/// no more messages than the analytic ledger (adversaries only remove).
fn judge_broadcast(
    value: u64,
    plan: &ByzantinePlan,
    ledger: &RunStats,
    out: &ByzantineOutcome<Option<u64>>,
) -> Option<String> {
    if out.honest_unanimous(plan) != Some(&Some(value)) {
        Some("honest nodes did not agree on the source's value".to_string())
    } else if out.stats.rounds != ledger.rounds {
        Some(format!(
            "{} rounds, ledger says {}",
            out.stats.rounds, ledger.rounds
        ))
    } else if out.stats.messages > ledger.messages {
        Some(format!(
            "{} messages above the ledger's {}",
            out.stats.messages, ledger.messages
        ))
    } else {
        None
    }
}

/// Every survivor holds the maximum; rejoins and replayed rounds match
/// the analytic sync price exactly, replayed messages stay within it.
fn judge_gossip(
    values: &[u64],
    plan: &FaultPlan,
    n: usize,
    out: &FaultedOutcome<u64>,
) -> Option<String> {
    let price = sync_overhead(n, plan, GOSSIP_WIDTH);
    let max = values.iter().copied().max();
    let s = &out.stats;
    if out.unanimous().copied() != max {
        Some("survivors disagree on the maximum".to_string())
    } else if s.rejoined_nodes != price.rejoins || s.sync_rounds != price.sync_rounds {
        Some(format!(
            "sync ledger ({} rejoins, {} rounds) differs from sync_overhead ({}, {})",
            s.rejoined_nodes, s.sync_rounds, price.rejoins, price.sync_rounds
        ))
    } else if s.sync_messages > price.sync_messages {
        Some(format!(
            "{} sync messages above the priced {}",
            s.sync_messages, price.sync_messages
        ))
    } else {
        None
    }
}

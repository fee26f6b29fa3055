//! Sweeps Bracha reliable broadcast against seeded Byzantine sender plans:
//! agreement rate among honest nodes and round/message overhead vs the
//! traitor budget `f`, at n ∈ {16, 32, 64}. Regenerates the numbers in
//! EXPERIMENTS.md §"Byzantine broadcast"; the adversary ladder itself is
//! documented in docs/THREAT-MODEL.md.
//!
//! The sweep is a `cc-service` fleet, the same shape as `routing_faults`:
//! each `(n, f, seed)` cell is one job (each clique size is a tenant
//! sharing the pool), the grid is one batch, and
//! `cc_testkit::assert_fleet_matches_serial` asserts the fleet outcomes
//! byte-identical to the serial oracle (`Batch::run_serial`) before the
//! table is printed from them. The footer reports both wall times — the
//! serial-vs-fleet row in EXPERIMENTS.md §"Session service" comes from
//! here.

use std::sync::Arc;

use cc_testkit::assert_fleet_matches_serial;
use congested_clique::prelude::*;
use congested_clique::resilient::{bracha_broadcast, bracha_overhead};
use congested_clique::service::{Batch, JobSpec, JobStatus, TenantId};

const WIDTH: usize = 8;
const VALUE: u64 = 0xB7;
const SEEDS: [u64; 3] = [1, 2, 3];

/// One sweep cell: everything needed to rebuild the job anywhere.
#[derive(Clone, Copy)]
struct Cell {
    n: usize,
    f: usize,
    seed: u64,
}

impl Cell {
    fn plan(&self) -> ByzantinePlan {
        ByzantinePlan::new(self.seed * 1000 + self.f as u64)
            .with_random_traitors(self.n, self.f, &[NodeId(0)])
            .garble(1.0)
            .replay(0.4)
            .silence(0.2)
    }

    /// The cell as a service job. Output bytes: five little-endian u64s —
    /// agreeing honest nodes, honest nodes, forged+silenced lies, rounds,
    /// messages.
    fn job(&self) -> JobSpec {
        let cell = *self;
        JobSpec::new(
            TenantId(self.n as u32),
            format!("bracha[n={}, f={}, seed={}]", self.n, self.f, self.seed),
            Engine::new(self.n)
                .with_bandwidth(WIDTH + 2)
                .with_byzantine_plan(self.plan()),
            Arc::new(move |session, _deps| {
                let plan = cell.plan();
                let out = bracha_broadcast(session, NodeId(0), VALUE, WIDTH, cell.f)
                    .map_err(|e| format!("bracha failed: {e}"))?;
                let (mut agree, mut honest) = (0u64, 0u64);
                for v in 0..cell.n {
                    if plan.is_traitor(NodeId::from(v)) {
                        continue;
                    }
                    honest += 1;
                    if out.outputs[v] == Some(Some(VALUE)) {
                        agree += 1;
                    }
                }
                let forged = out.stats.forged_messages + out.stats.silenced_messages;
                Ok([
                    agree,
                    honest,
                    forged,
                    out.stats.rounds as u64,
                    out.stats.messages,
                ]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect())
            }),
        )
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in [16usize, 32, 64] {
        for f in [0usize, 1, n / 3 - 1] {
            for seed in SEEDS {
                cells.push(Cell { n, f, seed });
            }
        }
    }
    cells
}

fn decode(bytes: &[u8]) -> [u64; 5] {
    let mut vals = [0u64; 5];
    for (i, chunk) in bytes.chunks_exact(8).take(5).enumerate() {
        vals[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    vals
}

fn main() {
    let cells = cells();
    let mut batch = Batch::new();
    for cell in &cells {
        batch.push(cell.job());
    }

    // Serial oracle first, then the fleet — and the fleet must agree byte
    // for byte before any number is printed.
    let check = assert_fleet_matches_serial(&batch, &[4]);
    let serial = &check.outcomes;

    println!("Bracha broadcast vs Byzantine senders (honest source, width = {WIDTH} bits)");
    println!("plans: garble 1.0, replay 0.4, silence 0.2, traitors random sparing the source\n");
    println!(
        "{:>4} {:>4} {:>18} {:>10} {:>10} {:>12} {:>8}",
        "n", "f", "agreement", "rounds", "overhead", "messages", "forged"
    );
    // Aggregate the per-seed jobs back into one row per (n, f).
    for row_start in (0..cells.len()).step_by(SEEDS.len()) {
        let cell = cells[row_start];
        let mut agg = [0u64; 5];
        for outcome in &serial[row_start..row_start + SEEDS.len()] {
            let JobStatus::Done(bytes) = &outcome.status else {
                panic!(
                    "{}: sweep job did not complete: {:?}",
                    outcome.label, outcome.status
                );
            };
            let vals = decode(bytes);
            agg[0] += vals[0];
            agg[1] += vals[1];
            agg[2] += vals[2];
            agg[3] = vals[3];
            agg[4] = vals[4];
        }
        let [agree, honest, forged, rounds, messages] = agg;
        // Baseline: a bare 1-round broadcast of the same value.
        let analytic = bracha_overhead(cell.n, cell.f, WIDTH);
        assert_eq!(analytic.rounds as u64, rounds, "analytic model drifted");
        println!(
            "{:>4} {:>4} {:>13}/{:<4} {:>10} {:>9}x {:>12} {:>8}",
            cell.n,
            cell.f,
            agree,
            honest,
            rounds,
            rounds, // baseline broadcast = 1 round
            messages,
            forged / SEEDS.len() as u64,
        );
    }
    println!(
        "\nagreement counts honest nodes delivering the source's exact value,\n\
         summed over seeds {SEEDS:?}; overhead is rounds vs a 1-round bare\n\
         broadcast; forged averages lies per run across the seeds."
    );
    println!("{check}");
}

//! Sweeps Dolev–Strong authenticated broadcast against seeded Byzantine
//! sender plans *past* Bracha's `f < n/3` ceiling: agreement rate among
//! honest nodes and round/message overhead vs the traitor budget `f`, up
//! to the honest-majority maximum `⌈n/2⌉ − 1`, at n ∈ {16, 32, 64}.
//! Regenerates the numbers in EXPERIMENTS.md §"Authenticated broadcast";
//! the full adversary ladder is documented in docs/THREAT-MODEL.md.
//!
//! Like `byzantine_broadcast`, the sweep is a `cc-service` fleet: each
//! `(n, f, seed)` cell is one job whose engine carries a seeded
//! `AuthKeyring` (each clique size is a tenant sharing the pool), the grid
//! is one batch, and `cc_testkit::assert_fleet_matches_serial` asserts the
//! fleet outcomes byte-identical to the serial oracle (`Batch::run_serial`)
//! before the table is printed from them. The footer reports both wall
//! times — the serial-vs-fleet row in EXPERIMENTS.md §"Session service"
//! includes it.

use std::sync::Arc;

use cc_testkit::assert_fleet_matches_serial;
use congested_clique::prelude::*;
use congested_clique::resilient::{dolev_strong_broadcast, dolev_strong_overhead};
use congested_clique::service::{Batch, JobSpec, JobStatus, TenantId};
use congested_clique::sim::TAG_BITS;

const WIDTH: usize = 8;
const VALUE: u64 = 0xD5;
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
            .silence(0.2)
            .forge(0.2)
    }

    /// Engine bandwidth for a full `f + 1`-entry signature chain.
    fn bandwidth(&self) -> usize {
        WIDTH + (self.f + 1) * (BitString::width_for(self.n) + TAG_BITS)
    }

    /// The cell as a service job. Output bytes: six little-endian u64s —
    /// agreeing honest nodes, honest nodes, rejected tags, rounds,
    /// messages, auth bits.
    fn job(&self) -> JobSpec {
        let cell = *self;
        JobSpec::new(
            TenantId(self.n as u32),
            format!("auth[n={}, f={}, seed={}]", self.n, self.f, self.seed),
            Engine::new(self.n)
                .with_bandwidth(self.bandwidth())
                .with_byzantine_plan(self.plan())
                .with_auth(AuthKeyring::from_seed(self.n, self.seed)),
            Arc::new(move |session, _deps| {
                let plan = cell.plan();
                let out = dolev_strong_broadcast(session, NodeId(0), VALUE, WIDTH, cell.f)
                    .map_err(|e| format!("dolev-strong failed: {e}"))?;
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
                Ok([
                    agree,
                    honest,
                    out.stats.rejected_tags,
                    out.stats.rounds as u64,
                    out.stats.messages,
                    out.stats.auth_bits,
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
        // f = n/3 is Bracha's first impossible rung; ⌈n/2⌉ − 1 is the
        // honest-majority maximum the default wrapper tolerates.
        for f in [0usize, n / 3, n.div_ceil(2) - 1] {
            for seed in SEEDS {
                cells.push(Cell { n, f, seed });
            }
        }
    }
    cells
}

fn decode(bytes: &[u8]) -> [u64; 6] {
    let mut vals = [0u64; 6];
    for (i, chunk) in bytes.chunks_exact(8).take(6).enumerate() {
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

    println!(
        "Dolev-Strong authenticated broadcast vs Byzantine senders \
         (honest source, width = {WIDTH} bits, {TAG_BITS}-bit tags)"
    );
    println!("plans: garble 1.0, silence 0.2, forge 0.2, traitors random sparing the source\n");
    println!(
        "{:>4} {:>4} {:>18} {:>10} {:>12} {:>12} {:>10}",
        "n", "f", "agreement", "rounds", "messages", "auth bits", "rejected"
    );
    // Aggregate the per-seed jobs back into one row per (n, f).
    for row_start in (0..cells.len()).step_by(SEEDS.len()) {
        let cell = cells[row_start];
        let mut agg = [0u64; 6];
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
            agg[5] = vals[5];
        }
        let [agree, honest, rejected, rounds, messages, auth_bits] = agg;
        assert_eq!(
            agree, honest,
            "n={} f={}: an honest node broke agreement",
            cell.n, cell.f
        );
        let analytic = dolev_strong_overhead(cell.n, cell.f, WIDTH);
        assert_eq!(analytic.rounds as u64, rounds, "analytic model drifted");
        println!(
            "{:>4} {:>4} {:>13}/{:<4} {:>10} {:>12} {:>12} {:>10}",
            cell.n,
            cell.f,
            agree,
            honest,
            rounds,
            messages,
            auth_bits,
            rejected / SEEDS.len() as u64,
        );
    }
    println!(
        "\nagreement counts honest nodes delivering the source's exact value,\n\
         summed over seeds {SEEDS:?} (the middle f rung is n/3 — already\n\
         past Bracha's ceiling); auth bits are the envelope tags' cost on\n\
         top of payload bits; rejected averages detected forgeries and\n\
         garbled signed frames per run across the seeds."
    );
    println!("{check}");
}

//! Sweeps the fault-aware routing layer against seeded crash plans:
//! survivor-delivery rate vs the crash fraction `f/n`, for both the direct
//! and the balanced scheduler, at n ∈ {16, 32}. Regenerates the numbers in
//! EXPERIMENTS.md §"Routing under faults" and README §"Routing survives
//! crashes". Every row is replayable from its `route-fault[…]` label.
//!
//! The sweep itself is a `cc-service` fleet: each
//! `(n, f, scheduler, seed)` cell is one job (the two schedulers are two
//! tenants sharing the pool), the whole grid is one batch, and
//! `cc_testkit::assert_fleet_matches_serial` asserts the fleet outcomes
//! byte-identical to the serial oracle (`Batch::run_serial`) before the
//! table is printed from them. The footer reports both wall times — the
//! serial-vs-fleet row in EXPERIMENTS.md §"Session service" comes from
//! here.

use std::sync::Arc;

use cc_testkit::{assert_fleet_matches_serial, RouteFaultCase};
use congested_clique::routing::{DeliveryFailure, RoutePlan};
use congested_clique::service::{Batch, JobSpec, JobStatus, TenantId};
use congested_clique::sim::Engine;

const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// One sweep cell: everything needed to rebuild the job anywhere.
#[derive(Clone, Copy)]
struct Cell {
    n: usize,
    f: usize,
    balanced: bool,
    seed: u64,
}

impl Cell {
    fn case(&self) -> RouteFaultCase {
        RouteFaultCase::new(self.n, self.f, self.seed * 100 + self.f as u64)
    }

    /// The cell as a service job. Output bytes: five little-endian u64s —
    /// demanded, delivered, src-dead, dst-dead, rounds.
    fn job(&self) -> JobSpec {
        let cell = *self;
        let case = self.case();
        JobSpec::new(
            TenantId(self.balanced as u32),
            format!(
                "{case}+{}",
                if self.balanced { "balanced" } else { "direct" }
            ),
            Engine::new(self.n).with_fault_plan(case.plan()),
            Arc::new(move |session, _deps| {
                let case = cell.case();
                let crash = case.crash_set();
                let demands = case.demands();
                let demanded = demands.iter().map(Vec::len).sum::<usize>();
                let plan = if cell.balanced {
                    RoutePlan::balanced()
                } else {
                    RoutePlan::direct()
                };
                let out = plan
                    .avoiding(&crash)
                    .run_faulted(session, demands)
                    .map_err(|e| format!("{case}: routing failed: {e}"))?;
                let delivered = out.delivered.iter().flatten().map(Vec::len).sum::<usize>();
                let (mut src_dead, mut dst_dead) = (0usize, 0usize);
                for u in &out.undeliverable {
                    match u.reason {
                        DeliveryFailure::SourceCrashed => src_dead += 1,
                        DeliveryFailure::DestinationCrashed => dst_dead += 1,
                    }
                }
                Ok([demanded, delivered, src_dead, dst_dead, out.stats.rounds]
                    .iter()
                    .flat_map(|v| (*v as u64).to_le_bytes())
                    .collect())
            }),
        )
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in [16usize, 32] {
        let mut budgets = vec![0usize, 1, 2, 4, n / 3 - 1];
        budgets.dedup();
        for f in budgets {
            for balanced in [false, true] {
                for seed in SEEDS {
                    cells.push(Cell {
                        n,
                        f,
                        balanced,
                        seed,
                    });
                }
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

    println!("Fault-aware routing vs seeded crash plans (crashes in rounds 0-2)");
    println!("delivery = survivor-pair payloads delivered / all demanded payloads;");
    println!("every payload between two survivors must arrive (survivor rate 100%)\n");
    println!(
        "{:>4} {:>4} {:>7} {:>9} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "n", "f", "f/n", "sched", "delivery", "survivor", "src-dead", "dst-dead", "rounds"
    );
    let mut last_n = 0usize;
    // Aggregate the per-seed jobs back into one row per (n, f, scheduler).
    for row_start in (0..cells.len()).step_by(SEEDS.len()) {
        let cell = cells[row_start];
        if last_n != 0 && cell.n != last_n {
            println!();
        }
        last_n = cell.n;
        let mut agg = [0u64; 5];
        for (cell, outcome) in cells[row_start..row_start + SEEDS.len()]
            .iter()
            .zip(&serial[row_start..row_start + SEEDS.len()])
        {
            let JobStatus::Done(bytes) = &outcome.status else {
                panic!(
                    "{}: sweep job did not complete: {:?}",
                    cell.case(),
                    outcome.status
                );
            };
            let vals = decode(bytes);
            for i in 0..4 {
                agg[i] += vals[i];
            }
            agg[4] = agg[4].max(vals[4]);
        }
        let [demanded, delivered, src_dead, dst_dead, rounds] = agg;
        // Every demand is accounted for: delivered to a survivor or
        // reported undeliverable with a dead endpoint.
        assert_eq!(delivered + src_dead + dst_dead, demanded);
        println!(
            "{:>4} {:>4} {:>6.1}% {:>9} {:>9.1}% {:>9} {:>8} {:>8} {:>8}",
            cell.n,
            cell.f,
            100.0 * cell.f as f64 / cell.n as f64,
            if cell.balanced { "balanced" } else { "direct" },
            100.0 * delivered as f64 / demanded as f64,
            "100.0%",
            src_dead,
            dst_dead,
            rounds
        );
    }
    println!("\n{check}");
}
